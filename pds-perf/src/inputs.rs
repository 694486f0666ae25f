//! Every input of a run.  The data set — the relations of the build phase,
//! the pre-encoded `INGEST` batches, the accuracy queries and the exact
//! expected frequencies they are checked against — is generated from
//! [`spec::DATA_SEED`]; the request scripts — what the query clients and the
//! reader ask for, in which order — from `--seed`.  The programs under test
//! receive only these generated inputs.

use std::time::Instant;

use pds_core::generator::{mystiq_like, MystiqLikeConfig};
use pds_core::io::write_stream;
use pds_core::model::ProbabilisticRelation;
use pds_core::stream::StreamRecord;
use pds_store::SnapshotView;

use crate::spec::{self, Counts};

/// SplitMix64: a few lines, so the inputs do not move when the workspace's
/// vendored `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, lo + span)`, rounded to four decimals so record
    /// lines look like hand-entered confidences, not 17-digit noise.
    fn prob(&mut self, lo: f64, span: f64) -> f64 {
        ((lo + span * self.unit()) * 1e4).round() / 1e4
    }
}

/// One read request of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Est(usize),
    Range(usize, usize),
}

impl Query {
    /// 50 % `EST`, 25 % `RANGE` of width 16, 25 % `RANGE` of width 1024.
    fn draw(rng: &mut Rng) -> Query {
        let lo = rng.below(spec::DOMAIN);
        match rng.below(4) {
            0 | 1 => Query::Est(lo),
            2 => Query::Range(lo, (lo + 15).min(spec::DOMAIN - 1)),
            _ => Query::Range(lo, (lo + 1023).min(spec::DOMAIN - 1)),
        }
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Query::Est(item) => out.extend_from_slice(format!("EST {item}\n").as_bytes()),
            Query::Range(lo, hi) => out.extend_from_slice(format!("RANGE {lo} {hi}\n").as_bytes()),
        }
    }

    /// The same question put to a snapshot view directly.
    pub fn direct(&self, view: &SnapshotView) -> f64 {
        match *self {
            Query::Est(item) => view.estimate(item),
            Query::Range(lo, hi) => view.range_estimate(lo, hi),
        }
    }
}

/// `spec::WINDOW` requests sent back to back before the replies are read.
pub struct Window {
    pub bytes: Vec<u8>,
    pub queries: Vec<Query>,
}

pub struct Inputs {
    pub build_rel: ProbabilisticRelation,
    pub wavelet_rel: ProbabilisticRelation,
    pub restricted_rel: ProbabilisticRelation,
    /// `INGEST <n>\n` plus `n` record lines each; the writer-alone phase
    /// sends the first `counts.ingest_batches`, the mixed phase the rest.
    pub batches: Vec<Vec<u8>>,
    /// Exact expected frequency of every item after the writer-alone phase,
    /// summed from the raw records (the possible-worlds expectation).
    pub expected: Vec<f64>,
    pub accuracy: Vec<(usize, usize)>,
    /// One cycled pool of windows per query connection.
    pub windows: Vec<Vec<Window>>,
    /// The cycled single requests of the reader beside the writer.
    pub reads: Vec<Query>,
    /// Hash of every request byte above; printed in the run header.
    pub script_hash: u64,
    /// Time spent in the relation generators and in `write_stream`.
    pub generator_s: f64,
    pub write_stream_s: f64,
}

/// A seeded `mystiq_like` relation over `n` items, shaped as in the paper.
pub fn relation(n: usize, seed: u64) -> ProbabilisticRelation {
    mystiq_like(MystiqLikeConfig {
        n,
        avg_tuples_per_item: spec::TUPLES_PER_ITEM,
        skew: spec::SKEW,
        seed,
    })
    .into()
}

/// The partition of record `i` of a batch: round-robin, except in a
/// phase's staggering prologue (see [`spec::CYCLE_BATCHES`]).
fn partition(prologue: bool, i: usize) -> usize {
    if !prologue {
        return i % spec::PARTITIONS;
    }
    // Partition p owns the next `least + STAGGER_STEP * p` records.
    let least = spec::BATCH / spec::PARTITIONS - spec::STAGGER_STEP * (spec::PARTITIONS - 1) / 2;
    let mut end = 0;
    (0..spec::PARTITIONS)
        .find(|p| {
            end += least + spec::STAGGER_STEP * p;
            i < end
        })
        .unwrap_or(spec::PARTITIONS - 1)
}

/// Record `i` of batch `t`: 70 % basic tuples, 15 % two-way x-tuples, 15 %
/// value pdfs, in a band that slides through every partition.
fn record(rng: &mut Rng, t: usize, prologue: bool, i: usize) -> StreamRecord {
    let width = spec::DOMAIN / spec::PARTITIONS;
    let u = rng.unit();
    let offset = (t * spec::BAND_STEP + (u * u * spec::BAND_WIDTH as f64) as usize) % width;
    let item = partition(prologue, i) * width + offset;
    match rng.below(100) {
        0..=69 => StreamRecord::Basic {
            item,
            prob: rng.prob(0.05, 0.9),
        },
        70..=84 => {
            let other = if item + 1 < spec::DOMAIN {
                item + 1
            } else {
                item - 1
            };
            StreamRecord::Alternatives(vec![
                (item, rng.prob(0.1, 0.4)),
                (other, rng.prob(0.1, 0.4)),
            ])
        }
        _ => StreamRecord::ValueDistribution {
            item,
            entries: vec![(1.0, rng.prob(0.2, 0.3)), (2.0, rng.prob(0.1, 0.3))],
        },
    }
}

fn add_expected(expected: &mut [f64], record: &StreamRecord) {
    match record {
        StreamRecord::Basic { item, prob } => expected[*item] += prob,
        StreamRecord::Alternatives(alts) => alts.iter().for_each(|&(i, p)| expected[i] += p),
        StreamRecord::ValueDistribution { item, entries } => {
            expected[*item] += entries.iter().map(|&(v, p)| v * p).sum::<f64>()
        }
    }
}

/// Word-at-a-time FNV-style fold; only equality between runs matters.
fn fold(hash: &mut u64, bytes: &[u8]) {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        *hash = (*hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &byte in chunks.remainder() {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

impl Inputs {
    pub fn generate(seed: u64, counts: &Counts) -> Inputs {
        let started = Instant::now();
        let build_rel = relation(spec::BUILD_N, spec::DATA_SEED);
        let wavelet_rel = relation(spec::WAVELET_N, spec::DATA_SEED ^ 1);
        let restricted_rel = relation(spec::RESTRICTED_N, spec::DATA_SEED ^ 2);
        let generator_s = started.elapsed().as_secs_f64();

        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut rng = Rng::new(spec::DATA_SEED, 1);
        let mut expected = vec![0.0; spec::DOMAIN];
        let mut write_stream_s = 0.0;
        let total = counts.ingest_batches + counts.mixed_batches;
        let mut batches = Vec::with_capacity(total);
        let mut records = Vec::with_capacity(spec::BATCH);
        for t in 0..total {
            // Both ingest phases start on empty memtables (the query phase
            // seals everything), so both open with a prologue.
            let in_phase = if t < counts.ingest_batches {
                t
            } else {
                t - counts.ingest_batches
            };
            let prologue = in_phase < counts.prologue_batches;
            records.clear();
            records.extend((0..spec::BATCH).map(|i| record(&mut rng, t, prologue, i)));
            if t < counts.ingest_batches {
                records.iter().for_each(|r| add_expected(&mut expected, r));
            }
            let mut payload = format!("INGEST {}\n", spec::BATCH).into_bytes();
            payload.reserve(spec::BATCH * 24);
            let encode = Instant::now();
            write_stream(&records, &mut payload).expect("writing to a Vec cannot fail");
            write_stream_s += encode.elapsed().as_secs_f64();
            fold(&mut hash, &payload);
            batches.push(payload);
        }

        let mut rng = Rng::new(spec::DATA_SEED, 2);
        let accuracy: Vec<(usize, usize)> = (0..counts.accuracy_queries)
            .map(|q| {
                let lo = rng.below(spec::DOMAIN);
                let width = [1, 16, 128, 1024][q % 4];
                (lo, (lo + width - 1).min(spec::DOMAIN - 1))
            })
            .collect();

        let windows: Vec<Vec<Window>> = (0..spec::QUERY_CONNECTIONS)
            .map(|conn| {
                let mut rng = Rng::new(seed, 3 + conn as u64);
                (0..spec::WINDOW_POOL.min(counts.query_windows))
                    .map(|_| {
                        let queries: Vec<Query> =
                            (0..spec::WINDOW).map(|_| Query::draw(&mut rng)).collect();
                        let mut bytes = Vec::with_capacity(spec::WINDOW * 16);
                        queries.iter().for_each(|q| q.encode(&mut bytes));
                        fold(&mut hash, &bytes);
                        Window { bytes, queries }
                    })
                    .collect()
            })
            .collect();

        let mut rng = Rng::new(seed, 9);
        let reads: Vec<Query> = (0..spec::READ_POOL)
            .map(|_| Query::draw(&mut rng))
            .collect();
        let mut read_bytes = Vec::new();
        reads.iter().for_each(|q| q.encode(&mut read_bytes));
        fold(&mut hash, &read_bytes);
        for &(lo, hi) in &accuracy {
            fold(
                &mut hash,
                &[(lo as u64).to_le_bytes(), (hi as u64).to_le_bytes()].concat(),
            );
        }

        Inputs {
            build_rel,
            wavelet_rel,
            restricted_rel,
            batches,
            expected,
            accuracy,
            windows,
            reads,
            script_hash: hash,
            generator_s,
            write_stream_s,
        }
    }

    /// The record lines of batch `t`, without the `INGEST` line.
    pub fn record_lines(&self, t: usize) -> &[u8] {
        let payload = &self.batches[t];
        let header = payload
            .iter()
            .position(|&b| b == b'\n')
            .expect("INGEST line")
            + 1;
        &payload[header..]
    }
}
