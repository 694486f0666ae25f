//! Deterministic structure-aware mutation fuzzing of every binary decoder
//! and of WAL/manifest crash recovery.
//!
//! No `cargo-fuzz`, no registry crates: mutations come from the vendored
//! deterministic [`rand`] shim, so a `(seed, iters)` pair replays the exact
//! same byte streams on every machine.  The harness:
//!
//! 1. builds **valid seed artefacts** through the real encoders (histogram
//!    and wavelet binaries, segment binaries and CRC blobs, full store
//!    snapshots, a real `MANIFEST`, WAL frames);
//! 2. applies structure-aware mutations — bit flips, truncations,
//!    extensions, magic/version/length skews, CRC-region flips, splices of
//!    two valid inputs, zeroed/duplicated windows, pure garbage;
//! 3. feeds each mutant to the matching decoder under
//!    [`std::panic::catch_unwind`] with a wall-clock budget and asserts the
//!    decoder **returns** — `Ok` on still-valid bytes or a `PdsError` — and
//!    never panics, never stalls, and (for the CRC-carrying formats: segment
//!    blobs, the manifest, WAL frames) **never classifies an input whose
//!    CRC-protected bytes were flipped as valid**;
//! 4. fuzzes **recovery**: a durable store directory is cloned per case,
//!    one on-disk file is mutated or deleted, and
//!    `SynopsisStore::open_with_wal` must return (store or error) without
//!    panicking, without inventing acknowledged records, and without
//!    producing non-finite estimates.
//!
//! Failures are minimised by bounded truncation/zeroing and written to the
//! corpus directory; `replay_corpus` re-runs every checked-in corpus file
//! and is wired into `cargo test` as a regression gate.

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pds_core::generator::test_workloads;
use pds_core::metrics::ErrorMetric;
use pds_core::stream::StreamRecord;
use pds_histogram::{build_histogram, Histogram};
use pds_server::proto;
use pds_store::blob;
use pds_store::manifest::Manifest;
use pds_store::wal;
use pds_store::{PartitionSpec, Segment, StoreConfig, SynopsisKind, SynopsisStore, WalSync};
use pds_wavelet::{build_sse_wavelet, WaveletSynopsis};

/// Decoder targets.  Every public deserialisation surface of the workspace
/// has one entry; `Blob`, `Manifest` and `WalFrame` carry CRCs and are held
/// to the stricter corrupted-CRC-must-reject contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Histogram::from_binary` (PDSH envelope, float buckets).
    Hist,
    /// `Histogram::from_binary` on the compact varint encoding.
    HistCompact,
    /// `WaveletSynopsis::from_binary` (PDSW envelope).
    Wav,
    /// `Segment::from_binary` (PDSG envelope).
    Seg,
    /// `Segment::from_blob` (the `PDSB` block container).
    Blob,
    /// `blob::decode_blob_meta` (footer + meta block only — the lazy-open
    /// path, which never reads the synopsis block).
    BlobMeta,
    /// `SynopsisStore::from_binary` (PDST envelope).
    Store,
    /// `Manifest::parse_bytes` (PDSM envelope + per-record CRCs).
    ManifestBytes,
    /// `wal::decode_log` on one checksummed binary WAL frame.
    WalFrame,
    /// `pds_server::proto::parse_command_bytes` (one network command line).
    Cmd,
}

impl Kind {
    /// Stable tag used in corpus file names.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Hist => "hist",
            Kind::HistCompact => "histc",
            Kind::Wav => "wav",
            Kind::Seg => "seg",
            Kind::Blob => "blob",
            Kind::BlobMeta => "blobmeta",
            Kind::Store => "store",
            Kind::ManifestBytes => "manifest",
            Kind::WalFrame => "walframe",
            Kind::Cmd => "cmd",
        }
    }

    fn from_tag(tag: &str) -> Option<Kind> {
        Some(match tag {
            "hist" => Kind::Hist,
            "histc" => Kind::HistCompact,
            "wav" => Kind::Wav,
            "seg" => Kind::Seg,
            "blob" => Kind::Blob,
            "blobmeta" => Kind::BlobMeta,
            "store" => Kind::Store,
            "manifest" => Kind::ManifestBytes,
            "walframe" => Kind::WalFrame,
            "cmd" => Kind::Cmd,
            _ => return None,
        })
    }

    /// Whether every byte of the encoding is covered by a checksum, making
    /// "a single bit flip must be rejected" a hard invariant.  `BlobMeta`
    /// is deliberately *not* listed even though its input is a full blob
    /// image: the metadata decoder never reads the synopsis block, so a
    /// flip there is invisible to it by design (the block's own CRC catches
    /// it at load time).
    fn crc_protected(self) -> bool {
        matches!(self, Kind::Blob | Kind::ManifestBytes | Kind::WalFrame)
    }
}

/// Fuzzer configuration; `..Default::default()` friendly.
pub struct FuzzConfig {
    /// Decoder mutations to run.
    pub iters: u64,
    /// Deterministic seed; the same `(seed, iters)` replays byte-for-byte.
    pub seed: u64,
    /// Where failures (and `--emit-corpus` samples) are written.  `None`
    /// disables corpus writes.
    pub corpus_dir: Option<PathBuf>,
    /// Recovery-directory cases; `None` derives `iters / 200`.
    pub recovery_cases: Option<u64>,
    /// Per-decode wall-clock budget; slower counts as a hang.
    pub max_decode_millis: u64,
    /// Also write one valid seed and a few rejected mutants per target into
    /// the corpus (used once to generate the checked-in regression corpus).
    pub emit_samples: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 50_000,
            seed: 0xC0DE,
            corpus_dir: None,
            recovery_cases: None,
            // Decodes are microseconds; whole seconds on a loaded CI box
            // still means a pathological blow-up, not noise.
            max_decode_millis: 2_000,
            emit_samples: false,
        }
    }
}

/// One reproducible failure: the mutant that triggered it and its minimised
/// form (bounded truncation + zeroing that preserves the failure).
pub struct FuzzFailure {
    /// Failure class: `panic`, `hang`, `crc-accept`, `recovery-panic`,
    /// `recovery-overcount`, `recovery-nonfinite`, `corpus`.
    pub kind: &'static str,
    /// Human-readable description (target, mutation, seed index).
    pub what: String,
    /// The full failing input.
    pub input: Vec<u8>,
    /// The minimised failing input (equals `input` when minimisation could
    /// not shrink it).
    pub minimized: Vec<u8>,
}

/// Aggregate counters for one fuzz run.
#[derive(Default)]
pub struct FuzzOutcome {
    /// Mutations executed.
    pub mutations: u64,
    /// Mutants the decoder rejected with a `PdsError`.
    pub rejected: u64,
    /// Mutants that still decoded as valid (e.g. payload-only skews on
    /// formats without whole-input checksums).
    pub accepted_valid: u64,
    /// Mutations that flipped CRC-protected bytes of a checksummed format.
    pub crc_mutations: u64,
    /// How many of those the decoder rejected — must equal `crc_mutations`.
    pub crc_rejected: u64,
    /// Recovery-directory cases executed.
    pub recovery_cases: u64,
    /// All failures, already minimised.
    pub failures: Vec<FuzzFailure>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

/// A valid encoder output for one decoder target.  For the checksummed
/// targets every byte is in the strict range a CRC-flip mutation may hit.
struct SeedInput {
    kind: Kind,
    bytes: Vec<u8>,
}

impl SeedInput {
    fn new(kind: Kind, bytes: Vec<u8>) -> SeedInput {
        SeedInput { kind, bytes }
    }
}

/// The global fuzz lock: `run` swaps the process panic hook while decoding
/// mutants, which must not race with a concurrent run in the same process
/// (parallel `cargo test` binaries each get their own process, so only
/// same-binary tests contend here).
static FUZZ_LOCK: Mutex<()> = Mutex::new(());

/// Runs the configured fuzz campaign and returns the aggregate outcome.
/// Never panics on decoder misbehaviour — misbehaviour is *recorded* in
/// [`FuzzOutcome::failures`].
pub fn run(config: &FuzzConfig) -> FuzzOutcome {
    let _guard = FUZZ_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let start = Instant::now();
    let mut outcome = FuzzOutcome::default();

    let seeds = match seed_inputs(config.seed) {
        Ok(seeds) => seeds,
        Err(e) => {
            outcome.failures.push(FuzzFailure {
                kind: "corpus",
                what: format!("building seed artefacts failed: {e}"),
                input: Vec::new(),
                minimized: Vec::new(),
            });
            outcome.elapsed = start.elapsed();
            return outcome;
        }
    };

    if let (true, Some(dir)) = (config.emit_samples, config.corpus_dir.as_deref()) {
        emit_valid_samples(&seeds, dir);
    }

    // Panic messages from caught decoder panics are noise (and would drown
    // the report at 50k iterations); silence the hook for the campaign.
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let mut rng = StdRng::seed_from_u64(config.seed);
    let budget = Duration::from_millis(config.max_decode_millis);
    let mut emitted_rejects = 0usize;
    for _ in 0..config.iters {
        let seed_ix = rng.gen_range(0..seeds.len());
        let other_ix = rng.gen_range(0..seeds.len());
        let seed = &seeds[seed_ix];
        let (mutation, mutant, strict) = mutate(&mut rng, seed, &seeds[other_ix].bytes);
        outcome.mutations += 1;
        if strict {
            outcome.crc_mutations += 1;
        }
        let (verdict, spent) = decode_guarded(seed.kind, &mutant);
        let describe = format!(
            "target={} mutation={mutation} seed-artefact={seed_ix} ({} bytes)",
            seed.kind.tag(),
            mutant.len()
        );
        if spent > budget {
            outcome.failures.push(FuzzFailure {
                kind: "hang",
                what: format!("decode took {spent:?} (budget {budget:?}): {describe}"),
                minimized: Vec::new(),
                input: mutant.clone(),
            });
        }
        match verdict {
            Verdict::Panicked => {
                let minimized = minimize(seed.kind, &mutant, Verdict::Panicked);
                outcome.failures.push(FuzzFailure {
                    kind: "panic",
                    what: format!("decoder panicked: {describe}"),
                    input: mutant,
                    minimized,
                });
            }
            Verdict::Valid if strict => {
                outcome.failures.push(FuzzFailure {
                    kind: "crc-accept",
                    what: format!("corrupted CRC-protected bytes accepted: {describe}"),
                    minimized: mutant.clone(),
                    input: mutant,
                });
            }
            Verdict::Valid => outcome.accepted_valid += 1,
            Verdict::Rejected => {
                outcome.rejected += 1;
                if strict {
                    outcome.crc_rejected += 1;
                }
                if config.emit_samples && emitted_rejects < 16 {
                    if let Some(dir) = config.corpus_dir.as_deref() {
                        let name = format!("{}__reject__{emitted_rejects:03}.bin", seed.kind.tag());
                        if fs::write(dir.join(name), &mutant).is_ok() {
                            emitted_rejects += 1;
                        }
                    }
                }
            }
        }
        // A pathological campaign (every mutant failing) should not OOM the
        // harness collecting millions of artefacts.
        if outcome.failures.len() >= 64 {
            break;
        }
    }

    let recovery_cases = config.recovery_cases.unwrap_or(config.iters / 200);
    fuzz_recovery(&mut rng, recovery_cases, config.seed, &mut outcome);

    panic::set_hook(prev_hook);

    if let Some(dir) = config.corpus_dir.as_deref() {
        write_failures(dir, &outcome.failures);
    }
    outcome.elapsed = start.elapsed();
    outcome
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

/// Builds one valid artefact per encoder through the real construction
/// paths (never hand-rolled bytes, so format evolution cannot silently
/// desynchronise the fuzzer).
fn seed_inputs(seed: u64) -> pds_core::error::Result<Vec<SeedInput>> {
    let mut seeds = Vec::new();
    let workloads = test_workloads(32, 11);
    for (i, workload) in workloads.iter().take(3).enumerate() {
        let hist = build_histogram(&workload.relation, ErrorMetric::Sse, 4 + i)?;
        seeds.push(SeedInput::new(Kind::Hist, hist.to_binary()?));
        seeds.push(SeedInput::new(Kind::HistCompact, hist.to_binary_compact()?));
        let wav = build_sse_wavelet(&workload.relation, 8)?;
        seeds.push(SeedInput::new(Kind::Wav, wav.to_binary()?));
        let seg = Segment::build(
            0,
            40 + i as u64,
            &workload.relation,
            SynopsisKind::Histogram(ErrorMetric::Sse),
            6,
        )?;
        seeds.push(SeedInput::new(Kind::Seg, seg.to_binary()?));
        seeds.push(SeedInput::new(Kind::Blob, seg.to_blob()?));
        seeds.push(SeedInput::new(Kind::BlobMeta, seg.to_blob()?));
    }
    let wavelet_seg = Segment::build(0, 9, &workloads[0].relation, SynopsisKind::Wavelet, 8)?;
    seeds.push(SeedInput::new(Kind::Seg, wavelet_seg.to_binary()?));
    seeds.push(SeedInput::new(Kind::Blob, wavelet_seg.to_blob()?));
    seeds.push(SeedInput::new(Kind::BlobMeta, wavelet_seg.to_blob()?));

    let store = SynopsisStore::new(store_config()?)?;
    store.ingest_batch(recovery_workload())?;
    store.seal_all()?;
    seeds.push(SeedInput::new(Kind::Store, store.to_binary()?));

    // A real MANIFEST with installs and a compaction-style replace, built
    // through the manifest's own API in a scratch directory.
    let dir = scratch_dir("manifest-seed", seed);
    {
        let (mut manifest, _) = Manifest::open(&dir, WalSync::Flush)?;
        manifest.install(0, 1)?;
        manifest.install(1, 1)?;
        manifest.install(0, 2)?;
        manifest.replace(0, &[1, 2], 3)?;
    }
    let bytes = fs::read(dir.join("MANIFEST")).map_err(|e| {
        pds_core::error::PdsError::InvalidParameter {
            message: format!("fuzz: cannot read seed MANIFEST: {e}"),
        }
    })?;
    let _ = fs::remove_dir_all(&dir);
    seeds.push(SeedInput::new(Kind::ManifestBytes, bytes));

    for record in [
        StreamRecord::Basic {
            item: 3,
            prob: 0.625,
        },
        StreamRecord::Alternatives(vec![(1, 0.25), (7, 0.5)]),
        StreamRecord::ValueDistribution {
            item: 12,
            entries: vec![(2.0, 0.5), (5.0, 0.25)],
        },
    ] {
        seeds.push(SeedInput::new(Kind::WalFrame, wal::frame_record(&record)?));
    }

    // Network command lines: one valid seed per verb so mutations explore
    // every arm of the server's decode surface.
    for line in [
        &b"PING\n"[..],
        b"EST 17\n",
        b"RANGE 3 250\n",
        b"STATS\n",
        b"MERGE 8\n",
        b"INGEST 1024\n",
        b"SEAL\n",
        b"SNAPSHOT\n",
        b"QUIT\n",
    ] {
        seeds.push(SeedInput::new(Kind::Cmd, line.to_vec()));
    }
    Ok(seeds)
}

fn store_config() -> pds_core::error::Result<StoreConfig> {
    Ok(StoreConfig::new(
        PartitionSpec::uniform(32, 2)?,
        6,
        32,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    ))
}

/// Deterministic ingest workload (dyadic probabilities, both partitions,
/// enough records to seal several segments at threshold 6).
fn recovery_workload() -> Vec<StreamRecord> {
    const PROBS: [f64; 4] = [0.5, 0.25, 0.75, 0.125];
    (0..26)
        .map(|i| StreamRecord::Basic {
            item: if i % 3 == 0 { 16 + i % 8 } else { i % 8 },
            prob: PROBS[i % PROBS.len()],
        })
        .collect()
}

fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("pds-analyze-{tag}-{seed:x}-{}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// Applies one structure-aware mutation.  Returns the mutation name, the
/// mutant, and whether the mutation provably corrupted CRC-protected bytes
/// (same length, exactly one bit flipped in a checksummed seed).
fn mutate(rng: &mut StdRng, seed: &SeedInput, other: &[u8]) -> (&'static str, Vec<u8>, bool) {
    let bytes = &seed.bytes;
    // Bit flips get double weight: they drive the strict CRC invariant.
    let op = match rng.gen_range(0..12u32) {
        0 | 1 => 0,
        n => n - 1,
    };
    match op {
        0 => {
            if bytes.is_empty() {
                return ("garbage", garbage(rng), false);
            }
            let strict = seed.kind.crc_protected();
            let name = if strict {
                "bit-flip(crc-protected)"
            } else {
                "bit-flip"
            };
            let mut out = bytes.clone();
            let pos = rng.gen_range(0..bytes.len());
            out[pos] ^= 1 << rng.gen_range(0..8u32);
            (name, out, strict)
        }
        1 => {
            let cut = rng.gen_range(0..bytes.len().max(1));
            ("truncate", bytes[..cut.min(bytes.len())].to_vec(), false)
        }
        2 => {
            let mut out = bytes.clone();
            for _ in 0..rng.gen_range(1..33u32) {
                out.push(rng.gen_range(0..256u32) as u8);
            }
            ("extend", out, false)
        }
        3 => {
            // Magic skew: corrupt the 4-byte envelope tag.
            let mut out = bytes.clone();
            if out.len() >= 4 {
                let pos = rng.gen_range(0..4usize);
                out[pos] ^= 1 << rng.gen_range(0..8u32);
            }
            ("magic-skew", out, false)
        }
        4 => {
            // Version skew: overwrite the u16 after the magic.
            let mut out = bytes.clone();
            if out.len() >= 6 {
                let v = rng.gen_range(0..65_536u32) as u16;
                out[4..6].copy_from_slice(&v.to_le_bytes());
            }
            ("version-skew", out, false)
        }
        5 => {
            // Length skew: saturate a 4-byte window, hitting the
            // length-prefix fields of the binio encodings.
            let mut out = bytes.clone();
            if !out.is_empty() {
                let pos = rng.gen_range(0..out.len());
                let end = (pos + 4).min(out.len());
                out[pos..end].fill(0xFF);
            }
            ("length-skew", out, false)
        }
        6 => {
            // CRC-region flip: a bit in the final 8 bytes (the trailer of
            // blob/manifest encodings).
            let mut out = bytes.clone();
            if !out.is_empty() {
                let lo = out.len().saturating_sub(8);
                let pos = rng.gen_range(lo..out.len());
                out[pos] ^= 1 << rng.gen_range(0..8u32);
            }
            ("crc-region-flip", out, false)
        }
        7 => {
            // Splice: prefix of this seed + suffix of another valid input.
            let k = rng.gen_range(0..bytes.len().min(other.len()).max(1));
            let mut out = bytes[..k.min(bytes.len())].to_vec();
            out.extend_from_slice(&other[k.min(other.len())..]);
            ("splice", out, false)
        }
        8 => ("garbage", garbage(rng), false),
        9 => {
            let mut out = bytes.clone();
            if !out.is_empty() {
                let pos = rng.gen_range(0..out.len());
                let end = (pos + rng.gen_range(1..17usize)).min(out.len());
                out[pos..end].fill(0);
            }
            ("zero-window", out, false)
        }
        _ => {
            let mut out = bytes.clone();
            if !out.is_empty() {
                let pos = rng.gen_range(0..out.len());
                let end = (pos + rng.gen_range(1..17usize)).min(out.len());
                let window = out[pos..end].to_vec();
                let at = rng.gen_range(0..out.len() + 1);
                drop(out.splice(at..at, window));
            }
            ("dup-window", out, false)
        }
    }
}

fn garbage(rng: &mut StdRng) -> Vec<u8> {
    (0..rng.gen_range(0..200usize))
        .map(|_| rng.gen_range(0..256u32) as u8)
        .collect()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Valid,
    Rejected,
    Panicked,
}

/// Decodes under `catch_unwind`, timing the call.
fn decode_guarded(kind: Kind, bytes: &[u8]) -> (Verdict, Duration) {
    let start = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(|| decode_once(kind, bytes)));
    let spent = start.elapsed();
    let verdict = match result {
        Ok(true) => Verdict::Valid,
        Ok(false) => Verdict::Rejected,
        Err(_) => Verdict::Panicked,
    };
    (verdict, spent)
}

/// One decode; `true` iff the bytes were accepted as valid.  Accepted
/// values are exercised (re-encoded or queried) so "decodes but explodes on
/// first use" also counts as a failure.
fn decode_once(kind: Kind, bytes: &[u8]) -> bool {
    match kind {
        Kind::Hist | Kind::HistCompact => match Histogram::from_binary(bytes) {
            Ok(h) => {
                let _ = h.to_binary();
                true
            }
            Err(_) => false,
        },
        Kind::Wav => match WaveletSynopsis::from_binary(bytes) {
            Ok(w) => {
                let _ = w.to_binary();
                true
            }
            Err(_) => false,
        },
        Kind::Seg => match Segment::from_binary(bytes) {
            Ok(s) => {
                let _ = s.records();
                true
            }
            Err(_) => false,
        },
        Kind::Blob => match Segment::from_blob(bytes) {
            Ok(s) => {
                let _ = s.to_blob();
                true
            }
            Err(_) => false,
        },
        Kind::BlobMeta => match blob::decode_blob_meta(bytes) {
            Ok(meta) => {
                // Exercise the decoded value the way a pruned query would.
                let _ = meta.prune.may_overlap(meta.start, 0, usize::MAX);
                let _ = meta.records;
                true
            }
            Err(_) => false,
        },
        Kind::Store => match SynopsisStore::from_binary(bytes) {
            Ok(s) => {
                let _ = s.range_estimate(0, 0);
                true
            }
            Err(_) => false,
        },
        Kind::ManifestBytes => Manifest::parse_bytes(bytes).is_ok(),
        Kind::WalFrame => wal::decode_log(bytes).is_ok(),
        // The server's command parser is total: arbitrary bytes must parse
        // or reject, never panic — the `ERR`-line-and-survive contract.
        Kind::Cmd => proto::parse_command_bytes(bytes).is_ok(),
    }
}

// ---------------------------------------------------------------------------
// Minimisation
// ---------------------------------------------------------------------------

/// Bounded minimisation: repeatedly truncate from the end (halving steps),
/// then zero single bytes, keeping any shrink that preserves the verdict.
/// Capped at 256 decode attempts so a hostile input cannot stall the run.
fn minimize(kind: Kind, input: &[u8], want: Verdict) -> Vec<u8> {
    let mut best = input.to_vec();
    let mut attempts = 0usize;
    let reproduces = |candidate: &[u8], attempts: &mut usize| {
        *attempts += 1;
        decode_guarded(kind, candidate).0 == want
    };
    // Truncation: drop ever-smaller tails.
    let mut chunk = best.len() / 2;
    while chunk > 0 && attempts < 192 {
        let candidate = &best[..best.len() - chunk.min(best.len())];
        if reproduces(candidate, &mut attempts) {
            best = candidate.to_vec();
        } else {
            chunk /= 2;
        }
    }
    // Zeroing: normalise payload bytes that do not matter.
    let mut pos = 0usize;
    while pos < best.len() && attempts < 256 {
        if best[pos] != 0 {
            let saved = best[pos];
            best[pos] = 0;
            if !reproduces(&best.clone(), &mut attempts) {
                best[pos] = saved;
            }
        }
        pos += 1;
    }
    best
}

// ---------------------------------------------------------------------------
// Recovery fuzzing
// ---------------------------------------------------------------------------

/// Clones a real durable store directory per case, mutates (or deletes) one
/// on-disk file, and asserts `open_with_wal` returns without panicking,
/// never recovers more records than were ever acknowledged, and never
/// serves non-finite estimates.
fn fuzz_recovery(rng: &mut StdRng, cases: u64, seed: u64, outcome: &mut FuzzOutcome) {
    if cases == 0 {
        return;
    }
    let workload = recovery_workload();
    let base = scratch_dir("recovery-base", seed);
    let _ = fs::remove_dir_all(&base);
    let built = (|| -> pds_core::error::Result<()> {
        let store = SynopsisStore::open_with_wal(store_config()?, &base)?;
        store.ingest_batch(workload.iter().cloned())
    })();
    if let Err(e) = built {
        outcome.failures.push(FuzzFailure {
            kind: "corpus",
            what: format!("building the recovery base store failed: {e}"),
            input: Vec::new(),
            minimized: Vec::new(),
        });
        return;
    }

    for case in 0..cases {
        let dir = std::env::temp_dir().join(format!(
            "pds-analyze-recovery-{seed:x}-{case}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        if copy_dir(&base, &dir).is_err() {
            break;
        }
        // Pick one durable file and damage it.
        let mut names: Vec<String> = match fs::read_dir(&dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect(),
            Err(_) => break,
        };
        names.sort();
        if names.is_empty() {
            break;
        }
        let victim = dir.join(&names[rng.gen_range(0..names.len())]);
        let describe;
        if rng.gen_range(0..8u32) == 0 {
            describe = format!("deleted {}", victim.display());
            let _ = fs::remove_file(&victim);
        } else {
            let original = fs::read(&victim).unwrap_or_default();
            let seed_input = SeedInput::new(Kind::Store, original);
            let (mutation, mutant, _) = mutate(rng, &seed_input, &[]);
            describe = format!("mutation={mutation} on {}", victim.display());
            let _ = fs::write(&victim, &mutant);
        }
        outcome.recovery_cases += 1;

        let opened = panic::catch_unwind(AssertUnwindSafe(|| {
            SynopsisStore::open_with_wal(store_config()?, &dir)
        }));
        match opened {
            Err(_) => outcome.failures.push(FuzzFailure {
                kind: "recovery-panic",
                what: format!("open_with_wal panicked; case {case}: {describe}"),
                input: Vec::new(),
                minimized: Vec::new(),
            }),
            Ok(Err(_)) => outcome.rejected += 1,
            Ok(Ok(store)) => {
                outcome.accepted_valid += 1;
                let recovered = store.stats().ingested_records;
                if recovered as usize > workload.len() {
                    outcome.failures.push(FuzzFailure {
                        kind: "recovery-overcount",
                        what: format!(
                            "recovered {recovered} records, only {} acknowledged; \
                             case {case}: {describe}",
                            workload.len()
                        ),
                        input: Vec::new(),
                        minimized: Vec::new(),
                    });
                }
                let estimate = store.range_estimate(0, 31);
                if !estimate.is_finite() || estimate < 0.0 {
                    outcome.failures.push(FuzzFailure {
                        kind: "recovery-nonfinite",
                        what: format!(
                            "range_estimate(0, 31) = {estimate}; case {case}: {describe}"
                        ),
                        input: Vec::new(),
                        minimized: Vec::new(),
                    });
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
        if outcome.failures.len() >= 64 {
            break;
        }
    }
    let _ = fs::remove_dir_all(&base);
}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

fn emit_valid_samples(seeds: &[SeedInput], dir: &Path) {
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut per_kind = std::collections::BTreeMap::new();
    for seed in seeds {
        let n = per_kind.entry(seed.kind.tag()).or_insert(0usize);
        let name = format!("{}__valid__{n:03}.bin", seed.kind.tag());
        if fs::write(dir.join(name), &seed.bytes).is_ok() {
            *n += 1;
        }
    }
}

fn write_failures(dir: &Path, failures: &[FuzzFailure]) {
    if failures.iter().all(|f| f.minimized.is_empty()) {
        return;
    }
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    for (i, f) in failures.iter().enumerate() {
        if f.minimized.is_empty() {
            continue;
        }
        let _ = fs::write(
            dir.join(format!("fail__{}__{i:03}.bin", f.kind)),
            &f.minimized,
        );
    }
}

/// Replays every checked-in corpus file.  File names encode the expectation:
/// `<kind>__valid__NNN.bin` must decode, `<kind>__reject__NNN.bin` must be
/// rejected, anything else (e.g. `fail__…`) only needs to neither panic nor
/// hang.  Returns the number of files replayed or the list of violations.
pub fn replay_corpus(dir: &Path) -> Result<usize, Vec<String>> {
    let _guard = FUZZ_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut names: Vec<String> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".bin"))
            .collect(),
        Err(e) => return Err(vec![format!("cannot read corpus {}: {e}", dir.display())]),
    };
    names.sort();
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut errors = Vec::new();
    let mut replayed = 0usize;
    for name in &names {
        let Ok(bytes) = fs::read(dir.join(name)) else {
            errors.push(format!("{name}: unreadable"));
            continue;
        };
        let mut parts = name.trim_end_matches(".bin").split("__");
        let (tag, expect) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        let kinds: Vec<Kind> = match Kind::from_tag(tag) {
            Some(kind) => vec![kind],
            // `fail__<kind>__NNN.bin`: the second field is the failure
            // class, not a decoder; replay against every decoder.
            None => vec![
                Kind::Hist,
                Kind::HistCompact,
                Kind::Wav,
                Kind::Seg,
                Kind::Blob,
                Kind::BlobMeta,
                Kind::Store,
                Kind::ManifestBytes,
                Kind::WalFrame,
                Kind::Cmd,
            ],
        };
        for kind in kinds {
            let (verdict, spent) = decode_guarded(kind, &bytes);
            replayed += 1;
            match verdict {
                Verdict::Panicked => {
                    errors.push(format!("{name}: panicked in {} decoder", kind.tag()));
                }
                Verdict::Valid if expect == "reject" => {
                    errors.push(format!("{name}: decoded valid, expected rejection"));
                }
                Verdict::Rejected if expect == "valid" => {
                    errors.push(format!("{name}: rejected, expected valid"));
                }
                _ => {}
            }
            if spent > Duration::from_secs(5) {
                errors.push(format!("{name}: decode took {spent:?}"));
            }
        }
    }
    panic::set_hook(prev_hook);
    if errors.is_empty() {
        Ok(replayed)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_valid_and_deterministic() {
        let a = seed_inputs(1).unwrap();
        let b = seed_inputs(1).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.bytes, y.bytes, "seed artefacts must be deterministic");
            let (verdict, _) = decode_guarded(x.kind, &x.bytes);
            assert!(
                matches!(verdict, Verdict::Valid),
                "unmutated {} seed must decode",
                x.kind.tag()
            );
        }
    }

    #[test]
    fn single_bit_flips_in_crc_protected_bytes_reject() {
        // The strict invariant, checked exhaustively on small seeds rather
        // than statistically: every single-bit flip of a blob, manifest, or
        // WAL frame (its length header included) must be rejected.
        let seeds = seed_inputs(2).unwrap();
        for seed in seeds.iter().filter(|s| s.kind.crc_protected()) {
            for pos in 0..seed.bytes.len() {
                for bit in 0..8 {
                    let mut mutant = seed.bytes.clone();
                    mutant[pos] ^= 1 << bit;
                    let (verdict, _) = decode_guarded(seed.kind, &mutant);
                    assert!(
                        matches!(verdict, Verdict::Rejected),
                        "{}: flip at byte {pos} bit {bit} was not rejected",
                        seed.kind.tag()
                    );
                }
            }
        }
    }

    #[test]
    fn mutation_stream_is_deterministic() {
        let seeds = seed_inputs(3).unwrap();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64)
                .map(|_| {
                    let i = rng.gen_range(0..seeds.len());
                    let j = rng.gen_range(0..seeds.len());
                    mutate(&mut rng, &seeds[i], &seeds[j].bytes).1
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
