//! The durable-path filesystem surface: a zero-cost passthrough over
//! `std::fs` with a deterministic, labeled **fault injector** behind it.
//!
//! Every filesystem operation the store's durable paths perform (WAL
//! appends and commits, manifest installs and publishes, segment-blob
//! writes and renames, recovery reads, cleanup removals) is routed through
//! the free functions of this module instead of calling `std::fs`
//! directly.  Each call carries a **site label** (`"wal-append"`,
//! `"blob-publish"`, …) naming the durable-path step it implements — the
//! same idea as the store's `crashpoint` labels, but for *I/O errors while
//! the process lives* rather than process death.
//!
//! With no fault armed, every function is a direct passthrough: the only
//! overhead is one inlined relaxed atomic load per call (the injector's
//! armed flag), so the production binary and the tested binary are
//! the same binary.
//!
//! ## Fault injection
//!
//! The [`fault`] submodule arms **one deterministic fault at a time**:
//! a site label, an [`fault::ErrorClass`] (EIO, ENOSPC, short write,
//! fsync failure, rename failure), an nth-op trigger, a failure count
//! (one failing op simulates a *transient* fault that a retry survives;
//! `u64::MAX` simulates a *persistently* failing disk), and an optional
//! path scope so concurrent tests in one process never see each other's
//! faults.  Arming is programmatic only: [`fault::arm`] installs the fault
//! for the lifetime of its guard and serialises fault-armed tests through a
//! process-wide lock.
//!
//! A short write is injected *honestly*: a real prefix of the payload
//! reaches the destination before the error surfaces, so the torn-frame
//! tolerance of the WAL/manifest decoders is exercised with genuine torn
//! bytes, not simulated ones.  Injected errors are distinguishable from
//! real disk errors ([`fault::is_injected`]) so telemetry can count the
//! two separately.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Creates `path` and any missing parents.
pub fn create_dir_all(site: &str, path: &Path) -> io::Result<()> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    fs::create_dir_all(path)
}

/// Reads the entire file at `path` into bytes.
pub fn read(site: &str, path: &Path) -> io::Result<Vec<u8>> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    fs::read(path)
}

/// Reads exactly `len` bytes starting at byte `offset` of the file at
/// `path` — the lazy-block primitive: a blob footer or a single synopsis
/// block is loaded without pulling the rest of the file into memory.  A
/// file shorter than `offset + len` surfaces as
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_range(site: &str, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    let mut file = fs::File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

/// The length in bytes of the file at `path` — the other half of the
/// lazy-block protocol: a footer sits at a fixed offset from the *end* of
/// its blob, so the reader must learn the length before the first
/// [`read_range`].
pub fn path_len(site: &str, path: &Path) -> io::Result<u64> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    Ok(fs::metadata(path)?.len())
}

/// Reads the entire file at `path` into a string.
pub fn read_to_string(site: &str, path: &Path) -> io::Result<String> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    fs::read_to_string(path)
}

/// Writes `contents` as the whole file at `path` (create or truncate).
///
/// An armed short-write fault writes a real prefix of `contents` before
/// surfacing the error, leaving a genuinely torn file behind.
pub fn write(site: &str, path: &Path, contents: &[u8]) -> io::Result<()> {
    match fault::check_write(site, path, contents.len()) {
        fault::Injection::None => fs::write(path, contents),
        fault::Injection::Fail(e) => Err(e),
        fault::Injection::Short(n, e) => {
            let _ = fs::write(path, &contents[..n]);
            Err(e)
        }
    }
}

/// Creates (or truncates) the file at `path` for writing.
pub fn create(site: &str, path: &Path) -> io::Result<fs::File> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    fs::File::create(path)
}

/// Opens `path` in append mode, creating it when `create` is set.
pub fn open_append(site: &str, path: &Path, create: bool) -> io::Result<fs::File> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    fs::OpenOptions::new()
        .append(true)
        .create(create)
        .open(path)
}

/// Writes all of `buf` through `writer` (whose backing file is `path`,
/// used for fault scoping only).
///
/// An armed short-write fault pushes a real prefix of `buf` into the
/// writer before surfacing the error, so buffered writers genuinely carry
/// a torn frame afterwards.
pub fn write_all(site: &str, path: &Path, writer: &mut impl Write, buf: &[u8]) -> io::Result<()> {
    match fault::check_write(site, path, buf.len()) {
        fault::Injection::None => writer.write_all(buf),
        fault::Injection::Fail(e) => Err(e),
        fault::Injection::Short(n, e) => {
            let _ = writer.write_all(&buf[..n]);
            Err(e)
        }
    }
}

/// Flushes `writer` (backing file `path`).
pub fn flush(site: &str, path: &Path, writer: &mut impl Write) -> io::Result<()> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    writer.flush()
}

/// `fdatasync`s `file` (at `path`).
pub fn sync_data(site: &str, path: &Path, file: &fs::File) -> io::Result<()> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    file.sync_data()
}

/// Opens the file at `path` read-only and `fdatasync`s it — the
/// "sync a freshly staged file before renaming it live" idiom.
pub fn sync_path(site: &str, path: &Path) -> io::Result<()> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    fs::File::open(path)?.sync_data()
}

/// Opens the directory at `dir` and `fsync`s it — the durability step
/// that makes a rename inside it survive power loss.
pub fn sync_dir(site: &str, dir: &Path) -> io::Result<()> {
    if let Some(e) = fault::check(site, dir) {
        return Err(e);
    }
    fs::File::open(dir)?.sync_all()
}

/// Truncates (or extends) `file` (at `path`) to `len` bytes.
pub fn set_len(site: &str, path: &Path, file: &fs::File, len: u64) -> io::Result<()> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    file.set_len(len)
}

/// The current length of `file` (at `path`) in bytes.
pub fn file_len(site: &str, path: &Path, file: &fs::File) -> io::Result<u64> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    Ok(file.metadata()?.len())
}

/// Renames `from` to `to` — the atomic-publish primitive.
pub fn rename(site: &str, from: &Path, to: &Path) -> io::Result<()> {
    if let Some(e) = fault::check(site, from) {
        return Err(e);
    }
    fs::rename(from, to)
}

/// Removes the file at `path`.
pub fn remove_file(site: &str, path: &Path) -> io::Result<()> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    fs::remove_file(path)
}

/// Lists the directory at `path`.
pub fn read_dir(site: &str, path: &Path) -> io::Result<fs::ReadDir> {
    if let Some(e) = fault::check(site, path) {
        return Err(e);
    }
    fs::read_dir(path)
}

pub mod fault {
    //! The deterministic fault injector behind the [`vfs`](super)
    //! passthrough: at most one armed fault per process, matched by site
    //! label (and optional path scope), triggered on the nth matching
    //! operation.

    use std::io;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The injectable error classes — the disk-misbehaviour matrix.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorClass {
        /// A generic I/O error (`EIO`): the device-level failure.
        Eio,
        /// Out of space (`ENOSPC`), surfaced as
        /// [`io::ErrorKind::StorageFull`].
        Enospc,
        /// A short write: a real prefix of the payload lands before the
        /// error surfaces, leaving genuinely torn bytes behind.  On
        /// non-write operations this class degenerates to a plain error.
        ShortWrite,
        /// A failing `fsync`/`fdatasync`: durability cannot be promised.
        FsyncFail,
        /// A failing rename: an atomic publish that never happens.
        RenameFail,
    }

    impl ErrorClass {
        /// Every class, in matrix order.
        pub const ALL: [ErrorClass; 5] = [
            ErrorClass::Eio,
            ErrorClass::Enospc,
            ErrorClass::ShortWrite,
            ErrorClass::FsyncFail,
            ErrorClass::RenameFail,
        ];

        /// The stable text name (used in injected error messages and test
        /// labels).
        pub fn name(self) -> &'static str {
            match self {
                ErrorClass::Eio => "eio",
                ErrorClass::Enospc => "enospc",
                ErrorClass::ShortWrite => "short-write",
                ErrorClass::FsyncFail => "fsync-fail",
                ErrorClass::RenameFail => "rename-fail",
            }
        }
    }

    /// One armed fault: what fails, where, and for how long.
    #[derive(Debug, Clone)]
    pub struct FaultSpec {
        /// The site label the fault matches (e.g. `"wal-append"`).
        pub site: String,
        /// The error class to inject.
        pub class: ErrorClass,
        /// Trigger on the `at`-th matching operation (1-based).
        pub at: u64,
        /// How many matching operations fail once triggered: `1` is a
        /// transient fault a retry survives, [`u64::MAX`] a persistently
        /// failing disk.
        pub count: u64,
        /// Only operations on paths under this directory match; `None`
        /// matches every path.  In-process tests must scope their fault
        /// to their own temp directory.
        pub scope: Option<PathBuf>,
    }

    impl FaultSpec {
        /// A persistent fault at `site`, triggering on the first matching
        /// operation — the common matrix row.
        pub fn persistent(site: &str, class: ErrorClass) -> FaultSpec {
            FaultSpec {
                site: site.to_string(),
                class,
                at: 1,
                count: u64::MAX,
                scope: None,
            }
        }

        /// A transient fault at `site`: exactly `count` matching
        /// operations fail starting at the `at`-th, then the disk
        /// "recovers".
        pub fn transient(site: &str, class: ErrorClass, at: u64, count: u64) -> FaultSpec {
            FaultSpec {
                site: site.to_string(),
                class,
                at,
                count,
                scope: None,
            }
        }

        /// Restricts the fault to paths under `dir`.
        pub fn scoped(mut self, dir: &Path) -> FaultSpec {
            self.scope = Some(dir.to_path_buf());
            self
        }
    }

    struct Armed {
        spec: FaultSpec,
        /// Matching operations until the trigger (counts down to 1).
        countdown: AtomicI64,
        /// Failing operations remaining once triggered.
        remaining: AtomicI64,
    }

    /// Whether a fault is armed: the disabled fast path — taken by every
    /// durable-path operation of every production store — is this one
    /// relaxed load and a predicted branch.
    static ARMED: AtomicBool = AtomicBool::new(false);
    /// The armed fault, consulted only while [`ARMED`] is set.
    static ACTIVE: Mutex<Option<Arc<Armed>>> = Mutex::new(None);
    static INJECTED: AtomicU64 = AtomicU64::new(0);
    /// Serialises fault-armed tests within one process: only one fault
    /// can be armed at a time, and a concurrently running fault test
    /// would otherwise race on the global injector state.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn clamp_i64(n: u64) -> i64 {
        i64::try_from(n).unwrap_or(i64::MAX)
    }

    fn set_active(armed: Option<Armed>) {
        *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = armed.map(Arc::new);
    }

    #[inline]
    fn enabled() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// A programmatically armed fault; dropping it disarms the injector
    /// (and releases the process-wide fault-test lock).
    pub struct FaultGuard {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            set_active(None);
            ARMED.store(false, Ordering::SeqCst);
        }
    }

    /// Arms `spec` for the lifetime of the returned guard.  Blocks until
    /// any other armed fault in this process is dropped, so fault tests
    /// serialise instead of interfering.
    pub fn arm(spec: FaultSpec) -> FaultGuard {
        let lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_active(Some(Armed {
            countdown: AtomicI64::new(clamp_i64(spec.at.max(1))),
            remaining: AtomicI64::new(clamp_i64(spec.count)),
            spec,
        }));
        ARMED.store(true, Ordering::SeqCst);
        FaultGuard { _lock: lock }
    }

    /// Total faults injected by this process so far.
    pub fn injected_total() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }

    /// Whether `e` was produced by the injector (as opposed to the real
    /// disk) — telemetry counts the two separately.
    pub fn is_injected(e: &io::Error) -> bool {
        e.to_string().starts_with("injected ")
    }

    /// The injector's verdict for a write-class operation.
    pub enum Injection {
        /// No fault: perform the operation.
        None,
        /// Fail without touching the destination.
        Fail(io::Error),
        /// Write exactly this real prefix length, then fail.
        Short(usize, io::Error),
    }

    fn make_error(class: ErrorClass, site: &str) -> io::Error {
        INJECTED.fetch_add(1, Ordering::Relaxed);
        let message = format!("injected {} at {site}", class.name());
        match class {
            ErrorClass::Enospc => io::Error::new(io::ErrorKind::StorageFull, message),
            _ => io::Error::other(message),
        }
    }

    /// True when the armed fault fires for this (site, path) operation.
    fn fires(armed: &Armed, site: &str, path: &Path) -> bool {
        if armed.spec.site != site {
            return false;
        }
        if let Some(scope) = &armed.spec.scope {
            if !path.starts_with(scope) {
                return false;
            }
        }
        let n = armed.countdown.fetch_sub(1, Ordering::SeqCst);
        if n > 1 {
            return false;
        }
        armed.remaining.fetch_sub(1, Ordering::SeqCst) > 0
    }

    fn active() -> Option<Arc<Armed>> {
        let guard = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
        guard.clone()
    }

    /// Fault check for a non-write operation at `site` on `path`.
    ///
    /// `#[inline]` (here, on [`check_write`] and on [`enabled`]) is what
    /// makes the passthrough's disabled fast path genuinely cost one
    /// relaxed atomic load: the vfs wrappers are instantiated in caller
    /// crates, and without it every buffered WAL append would pay a
    /// cross-crate call chain (it shows in `pds-perf`'s
    /// `store.ingest_wal_ns_per_record`).
    #[inline]
    pub(super) fn check(site: &str, path: &Path) -> Option<io::Error> {
        if !enabled() {
            return None;
        }
        let armed = active()?;
        if fires(&armed, site, path) {
            Some(make_error(armed.spec.class, site))
        } else {
            None
        }
    }

    /// Fault check for a write of `len` bytes at `site` on `path`.
    #[inline]
    pub(super) fn check_write(site: &str, path: &Path, len: usize) -> Injection {
        if !enabled() {
            return Injection::None;
        }
        let Some(armed) = active() else {
            return Injection::None;
        };
        if !fires(&armed, site, path) {
            return Injection::None;
        }
        let e = make_error(armed.spec.class, site);
        if armed.spec.class == ErrorClass::ShortWrite && len > 1 {
            Injection::Short(len / 2, e)
        } else {
            Injection::Fail(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fault::{ErrorClass, FaultSpec};
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pds-vfs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn passthrough_roundtrips_without_faults() {
        let dir = tmp_dir("pass");
        let path = dir.join("a.bin");
        write("test-site", &path, b"hello").unwrap();
        assert_eq!(read("test-site", &path).unwrap(), b"hello");
        assert_eq!(read_to_string("test-site", &path).unwrap(), "hello");
        let renamed = dir.join("b.bin");
        rename("test-site", &path, &renamed).unwrap();
        assert!(read_dir("test-site", &dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name() == "b.bin"));
        remove_file("test-site", &renamed).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A passthrough must pass through: one WAL-shaped round — buffered
    /// appends, flush + fdatasync group commits, a rotation by rename, a
    /// stage/sync/rename/dir-sync blob publish — leaves the same file set
    /// with the same bytes through `vfs` as through the `std::fs` calls it
    /// wraps.
    #[test]
    fn passthrough_leaves_the_same_files_as_std_fs() {
        use std::collections::BTreeMap;
        use std::io::BufWriter;

        const SITE: &str = "t-identity";
        const FRAMES: usize = 5_000;
        let root = tmp_dir("identity");
        let round = |via_vfs: bool| -> io::Result<BTreeMap<String, Vec<u8>>> {
            let dir = root.join(if via_vfs { "vfs" } else { "std" });
            fs::create_dir_all(&dir)?;
            let open = |path: &Path| {
                if via_vfs {
                    open_append(SITE, path, true)
                } else {
                    fs::OpenOptions::new().append(true).create(true).open(path)
                }
            };
            let commit = |path: &Path, writer: &mut BufWriter<fs::File>| {
                if via_vfs {
                    flush(SITE, path, writer)?;
                    sync_data(SITE, path, writer.get_ref())
                } else {
                    writer.flush()?;
                    writer.get_ref().sync_data()
                }
            };
            let mut path = dir.join("wal-0000.log");
            let mut writer = BufWriter::new(open(&path)?);
            let mut frame = [0u8; 64];
            for i in 0..FRAMES {
                frame[..8].copy_from_slice(&(i as u64).to_le_bytes());
                if via_vfs {
                    write_all(SITE, &path, &mut writer, &frame)?;
                } else {
                    writer.write_all(&frame)?;
                }
                if (i + 1) % (FRAMES / 5) == 0 {
                    commit(&path, &mut writer)?;
                }
                if i + 1 == FRAMES / 2 {
                    // Rotation: retire the synced log, open a fresh one.
                    drop(writer);
                    let retired = dir.join("wal-0000.retired");
                    if via_vfs {
                        rename(SITE, &path, &retired)?;
                    } else {
                        fs::rename(&path, &retired)?;
                    }
                    path = dir.join("wal-0001.log");
                    writer = BufWriter::new(open(&path)?);
                }
            }
            commit(&path, &mut writer)?;
            drop(writer);

            let blob: Vec<u8> = (0..64 * 1024usize).map(|i| (i * 131) as u8).collect();
            let (stage, published) = (dir.join("seg-0-1.bin.tmp"), dir.join("seg-0-1.bin"));
            if via_vfs {
                write(SITE, &stage, &blob)?;
                sync_path(SITE, &stage)?;
                rename(SITE, &stage, &published)?;
                sync_dir(SITE, &dir)?;
            } else {
                fs::write(&stage, &blob)?;
                fs::File::open(&stage)?.sync_data()?;
                fs::rename(&stage, &published)?;
                fs::File::open(&dir)?.sync_all()?;
            }

            let mut files = BTreeMap::new();
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                files.insert(name, fs::read(entry.path())?);
            }
            Ok(files)
        };
        let (std_files, vfs_files) = (round(false).unwrap(), round(true).unwrap());
        assert_eq!(std_files.len(), 3, "retired log, live log, published blob");
        assert!(
            vfs_files == std_files,
            "the two backends left different files"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn read_range_slices_measures_and_respects_faults() {
        let dir = tmp_dir("range");
        let path = dir.join("blocks.bin");
        write("t-range", &path, b"0123456789").unwrap();
        assert_eq!(path_len("t-range", &path).unwrap(), 10);
        assert_eq!(read_range("t-range", &path, 0, 4).unwrap(), b"0123");
        assert_eq!(read_range("t-range", &path, 6, 4).unwrap(), b"6789");
        assert_eq!(read_range("t-range", &path, 10, 0).unwrap(), b"");
        // Past-the-end reads surface as UnexpectedEof, never a short buffer.
        let eof = read_range("t-range", &path, 8, 4).unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
        // An armed fault at the site fails both primitives before any I/O.
        let guard = fault::arm(FaultSpec::persistent("t-range", ErrorClass::Eio).scoped(&dir));
        assert!(fault::is_injected(
            &read_range("t-range", &path, 0, 4).unwrap_err()
        ));
        assert!(fault::is_injected(&path_len("t-range", &path).unwrap_err()));
        drop(guard);
        assert_eq!(read_range("t-range", &path, 2, 3).unwrap(), b"234");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_fault_fires_on_nth_op_then_expires() {
        let dir = tmp_dir("nth");
        let path = dir.join("x.bin");
        let guard = fault::arm(FaultSpec::transient("t-nth", ErrorClass::Eio, 2, 1).scoped(&dir));
        // The injection counter is process-global: both readings sit inside
        // the armed window (the guard holds the process-wide fault-test
        // lock), so sibling tests on other cores cannot land in the delta.
        let before = fault::injected_total();
        write("t-nth", &path, b"one").unwrap(); // op 1: below trigger
        let err = write("t-nth", &path, b"two").unwrap_err(); // op 2: fires
        assert!(fault::is_injected(&err), "{err}");
        write("t-nth", &path, b"three").unwrap(); // count exhausted
        assert_eq!(fault::injected_total() - before, 1);
        drop(guard);
        write("t-nth", &path, b"four").unwrap(); // disarmed
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_leaves_a_real_prefix() {
        let dir = tmp_dir("short");
        let path = dir.join("torn.bin");
        let guard =
            fault::arm(FaultSpec::persistent("t-short", ErrorClass::ShortWrite).scoped(&dir));
        let err = write("t-short", &path, b"0123456789").unwrap_err();
        assert!(fault::is_injected(&err));
        drop(guard);
        assert_eq!(read("t-short", &path).unwrap(), b"01234");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scope_and_site_filters_isolate_faults() {
        let dir = tmp_dir("scope");
        let other = tmp_dir("scope-other");
        let guard = fault::arm(FaultSpec::persistent("t-scope", ErrorClass::Eio).scoped(&dir));
        // Same site, other directory: passthrough.
        write("t-scope", &other.join("ok.bin"), b"ok").unwrap();
        // Other site, scoped directory: passthrough.
        write("t-elsewhere", &dir.join("ok.bin"), b"ok").unwrap();
        // Site and scope both match: fails.
        assert!(write("t-scope", &dir.join("bad.bin"), b"no").is_err());
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
    }

    #[test]
    fn enospc_class_surfaces_storage_full() {
        let dir = tmp_dir("enospc");
        let guard = fault::arm(FaultSpec::persistent("t-nospc", ErrorClass::Enospc).scoped(&dir));
        let err = write("t-nospc", &dir.join("f.bin"), b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert!(fault::is_injected(&err));
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_helpers_pass_through() {
        let dir = tmp_dir("sync");
        let path = dir.join("s.bin");
        let mut file = create("t-sync", &path).unwrap();
        write_all("t-sync", &path, &mut file, b"payload").unwrap();
        flush("t-sync", &path, &mut file).unwrap();
        sync_data("t-sync", &path, &file).unwrap();
        set_len("t-sync", &path, &file, 3).unwrap();
        assert_eq!(file_len("t-sync", &path, &file).unwrap(), 3);
        sync_dir("t-sync", &dir).unwrap();
        let appended = open_append("t-sync", &path, false).unwrap();
        drop(appended);
        drop(file);
        create_dir_all("t-sync", &dir.join("sub")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
