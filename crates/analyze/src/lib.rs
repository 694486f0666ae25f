//! # pds-analyze
//!
//! Workspace invariant checker for the probabilistic-synopsis store: custom
//! lints for the conventions PRs 4–5 established by hand, plus a
//! deterministic structure-aware fuzzer over every binary decoder and the
//! WAL/manifest recovery path.  The compiler and clippy cannot express
//! these rules; this crate checks them with a small in-repo lexer
//! ([`lexer`]) — no `syn`, the registry is offline — running token-stream
//! passes with span-accurate diagnostics ([`rules`]).
//!
//! Run it as a CLI:
//!
//! ```text
//! cargo run -p pds-analyze -- check            # lint the workspace
//! cargo run -p pds-analyze -- fuzz --iters 50000 --seed 0xC0DE
//! ```
//!
//! ## Rule catalogue
//!
//! ### `lock-discipline` (files under `crates/store/src` and
//! `crates/server/src`, plus `crates/core/src/telemetry.rs`)
//!
//! **What:** no shard `read()`/`write()` guard (including the
//! `write_shard`/`read_shard` helpers) may live across file I/O, fsync,
//! serialisation (`to_binary`/`to_blob`), a segment handle's zero-arg
//! block `load()`, a WAL operation, one of the store's I/O-wrapping
//! helpers, or another lock acquisition.  The rule flags every such call
//! in the token window between the guard's binding and the end of its
//! enclosing block (or `drop(guard)`); guards that are never bound are
//! tracked to the end of their statement, and a `capture_cut(..)`
//! argument list (its closure runs under each shard's guard) is a window
//! of its own.  In `crates/server/src` and `crates/core/src/telemetry.rs`
//! a zero-arg `.lock()` counts as an acquisition too: neither the
//! connection-queue mutex nor the registry's render mutex may be held
//! across I/O, a store call or another acquisition.  (Store files are
//! exempt from the `.lock()` shape on purpose — the WAL's internal mutex
//! exists precisely to serialise its own file I/O.)
//!
//! **Why:** PR 5 narrowed every durable commit to *"write blob + manifest
//! first, lock only for the in-memory swap"* — holding a shard lock across
//! an fsync turns one slow disk into a store-wide stall, and taking a
//! second shard's lock under the first deadlocks with the opposite order.
//! The designed exception is WAL-before-acknowledge: the append *must*
//! happen under the shard lock so the WAL order equals the memtable order.
//! Those sites carry a justified allow.
//!
//! **Suppress:** `// analyze:allow(lock-discipline) <why this hold is safe>`
//! on the line above the flagged call, or above the `fn` to cover the
//! whole function.
//!
//! ### `panic-freedom` (`pds-core::binio`, `pds-core::telemetry` and
//! `pds-core::vfs`; store `wal.rs` / `manifest.rs` / `segment.rs` /
//! `blob.rs` / `telemetry.rs` / `query.rs`; all of `crates/server/src`)
//!
//! **What:** in non-test code of the covered scope, no
//! `.unwrap()` / `.expect()`, no `panic!` / `todo!` / `unimplemented!` /
//! `unreachable!`, and no index expression without visible bounds
//! evidence.  Coverage is always a whole file: the durability-critical
//! decoder files, the whole `pds-server` crate, and the store's read side
//! — `crates/store/src/query.rs`: segment handles, the range kernel,
//! `estimate` / `range_estimate` / `merge_global` / `snapshot_view` /
//! `stats` / `render_*` and `SnapshotView`, everything `pds-server`
//! routes client commands to.  The store's write paths live in
//! `store.rs`, outside the rule — they *should* panic rather than keep
//! mutating behind a poisoned lock.
//! The telemetry files join the list because they record inside
//! shard-guard windows and render on the serving path: a panic there
//! turns an observability feature into an availability bug.  Evidence (deliberately coarse — this is a reviewer aid with
//! an escape hatch, not a prover): the value passed a `?` check, the index
//! contains a mask/modulus/`min`/`max`, the enclosing scope calls a
//! length/slicing helper (`len`, `remaining`, `chunks`, `split_at`, …)
//! before the site, or the indexed local is a fixed-size array literal.
//!
//! **Why:** these files parse *untrusted bytes* (blobs, WAL tails,
//! manifests after a crash — and, for `pds-server`, arbitrary network
//! input).  Every failure must surface as an error (`PdsError`, or an
//! `ERR` protocol line) so recovery and serving can proceed; a panic in a
//! decoder turns a torn write into an unrecoverable store, and a panic on
//! the serving path lets one hostile client kill the process.  The fuzzer
//! ([`fuzz`]) enforces the same contract dynamically (including the `cmd`
//! target over the server's command parser); this rule keeps the panics
//! from being written at all.
//!
//! **Suppress:** `// analyze:allow(panic-freedom) <why it cannot fire>`.
//!
//! ### `binio-framing` (all workspace `src` files)
//!
//! **What:** (a) every `ByteWriter::envelope(MAGIC, ...)` writer has a
//! `ByteReader::envelope(.., .., MAGIC)` reader for the same magic
//! somewhere in the workspace (magics resolve through same-file
//! `const NAME: [u8; 4] = *b"....";` definitions or inline literals);
//! (b) inside a reader function, the envelope's returned version must be
//! compared (`==`/`!=`/`match`) before the first length-prefixed read
//! (`get_len` / `get_varint` / `get_bytes`); (c) any crate that produces
//! CRC trailers (`append_crc32`, or `crc32` + `to_le_bytes` in one
//! function) must also contain a verify site (`verify_crc32`, or `crc32`
//! compared with `==`/`!=`).
//!
//! **Why:** a length field read before the version check lets a
//! version-skewed or corrupted header drive allocation and slicing with
//! attacker-controlled numbers; an unpaired writer is a format nothing can
//! ever decode; an unpaired CRC is integrity theatre.
//!
//! **Suppress:** `// analyze:allow(binio-framing) <why>`.
//!
//! ### `crash-coverage` (files under `crates/store/src`)
//!
//! **What:** every atomic publish — an `fs::rename(from, ..)` or
//! `vfs::rename(site, from, ..)` whose source is a `tmp`/`staging` path —
//! must be preceded, in the same function, by a
//! `crashpoint::reached("<label>")`; and every label used in the sources
//! must appear as a `label:` of the crash-matrix test
//! (`crates/store/tests/store_crash_matrix.rs`), so arming the label
//! actually exercises the kill-and-recover path.
//!
//! **Why:** the crash matrix is the store's durability proof.  A publish
//! site without a crash point is a commit protocol step the matrix can
//! never interrupt — exactly where an untested torn state hides.
//!
//! **Suppress:** `// analyze:allow(crash-coverage) <why>`.
//!
//! ### `vfs-discipline` (files under `crates/store/src`)
//!
//! **What:** non-test store code may not call `fs::`, `File::` or
//! `OpenOptions::` functions directly — every durable operation must route
//! through the `pds_core::vfs` passthrough.  Test modules are exempt (they
//! stage fixtures and inspect artefacts directly).
//!
//! **Why:** the vfs layer is where the deterministic fault injector, the
//! bounded retry policy and the I/O-error telemetry all live.  A direct
//! filesystem call is invisible to the fault matrix (so its failure mode
//! is never exercised), skips retry, and fails without a trace — exactly
//! the silent error path this PR's degraded-mode machinery exists to
//! close.
//!
//! **Suppress:** `// analyze:allow(vfs-discipline) <why this bypass is safe>`.
//!
//! ### `allow-discipline` (automatic)
//!
//! Every `// analyze:allow(<rule>) <justification>` is recorded and
//! reported with its use count.  An allow with an empty justification, or
//! one that no longer suppresses anything, is itself a finding — the
//! escape hatch never rots silently.
//!
//! ## Fuzzing
//!
//! [`fuzz`] round-trips every binary format through its real encoder, then
//! applies structure-aware mutations (bit flips, truncations, extensions,
//! magic/version/length/CRC skew, splice-of-two-valids) and asserts the
//! decoders — and `SynopsisStore::open_with_wal` over a mutated store
//! directory — return `PdsError` or a valid value: never a panic, never a
//! hang, never a silent accept of a corrupted CRC.  Failures are minimised
//! and written to a corpus directory that `cargo test` replays.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fuzz;
pub mod lexer;
pub mod rules;
