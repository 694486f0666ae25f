//! The five invariant rules and the machinery that runs them.
//!
//! Every rule works on the token stream of [`crate::lexer`] — see the crate
//! docs ([`crate`]) for the catalogue of what each rule checks, why it
//! exists, and how to suppress a finding with
//! `// analyze:allow(<rule>) <justification>`.
//!
//! The public surface is intentionally small:
//!
//! * [`SourceModel::new`] — lex one file and precompute function spans and
//!   `#[test]`/`#[cfg(test)]` spans;
//! * [`analyze_sources`] — run every applicable rule over a set of files
//!   and fold allow-suppression into a [`Report`];
//! * [`check_workspace`] — walk a workspace root and call the above.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Allow, TokKind, Token};

/// Rule name: shard guards must not live across I/O / serialisation.
pub const RULE_LOCK: &str = "lock-discipline";
/// Rule name: no panic paths in the durability-critical decoder files.
pub const RULE_PANIC: &str = "panic-freedom";
/// Rule name: envelope writer/reader pairing and version-before-length.
pub const RULE_FRAMING: &str = "binio-framing";
/// Rule name: tmp-rename publishes need a registered crash point.
pub const RULE_CRASH: &str = "crash-coverage";
/// Rule name: store durable I/O must route through `pds_core::vfs`.
pub const RULE_VFS: &str = "vfs-discipline";
/// Rule name: allows must be justified and must still suppress something.
pub const RULE_ALLOW: &str = "allow-discipline";

/// One finding, pointing at a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which rule fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// One `analyze:allow` comment, with how often it suppressed a finding.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: String,
    /// The recorded justification text.
    pub justification: String,
    /// How many findings this allow suppressed in this run.
    pub uses: usize,
}

/// Result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by file/line/column.
    pub diagnostics: Vec<Diagnostic>,
    /// Every allow comment seen, with its use count — the escape hatch is
    /// recorded and reported, never silent.
    pub allows: Vec<AllowRecord>,
    /// Number of files analysed.
    pub files_scanned: usize,
}

impl Report {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// A function item: the `fn` keyword token index and its body token range
/// (`None` for bodyless trait-method declarations).
#[derive(Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub kw: usize,
    /// `(open_brace, close_brace)` token indices of the body.
    pub body: Option<(usize, usize)>,
}

/// One lexed file plus the structural indices the rules need.
pub struct SourceModel {
    /// Workspace-relative path (used for rule scoping and diagnostics).
    pub path: PathBuf,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Allow comments.
    pub allows: Vec<Allow>,
    /// Function spans in source order.
    pub fns: Vec<FnSpan>,
    /// Token ranges (inclusive) covered by `#[test]` / `#[cfg(test)]`.
    pub tests: Vec<(usize, usize)>,
}

impl SourceModel {
    /// Lex `source` and precompute spans.  `path` should be
    /// workspace-relative — rule scoping matches on it.
    pub fn new(path: impl Into<PathBuf>, source: &str) -> Self {
        let lexed = lex(source);
        let fns = find_fns(&lexed.tokens);
        let tests = find_tests(&lexed.tokens);
        SourceModel {
            path: path.into(),
            tokens: lexed.tokens,
            allows: lexed.allows,
            fns,
            tests,
        }
    }

    fn display(&self) -> String {
        self.path.display().to_string()
    }

    fn in_test(&self, i: usize) -> bool {
        self.tests.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// Innermost function whose body contains token `i`.
    fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| matches!(f.body, Some((a, b)) if a <= i && i <= b))
            .max_by_key(|f| f.body.map(|(a, _)| a))
    }

    /// Token range used for guard-evidence scans: the enclosing function
    /// body, or the innermost brace block (const/static initialisers), or
    /// the whole file.
    fn enclosing_scope(&self, i: usize) -> (usize, usize) {
        if let Some(f) = self.enclosing_fn(i) {
            if let Some(b) = f.body {
                return b;
            }
        }
        // Walk back to the innermost unmatched `{`.
        let mut depth = 0usize;
        for j in (0..i).rev() {
            if self.tokens[j].is_punct("}") {
                depth += 1;
            } else if self.tokens[j].is_punct("{") {
                if depth == 0 {
                    let close = match_forward(&self.tokens, j, "{", "}");
                    return (j, close);
                }
                depth -= 1;
            }
        }
        (0, self.tokens.len().saturating_sub(1))
    }
}

/// Find the matching closer for the opener at `open_idx`; returns the last
/// token index if unbalanced (lexing never fails, rules stay total).
fn match_forward(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(...)` pointer type
        }
        // Scan the signature for the body `{` (or `;` for declarations),
        // ignoring parenthesised argument lists.
        let mut paren = 0usize;
        let mut body = None;
        for (j, t) in tokens.iter().enumerate().skip(i + 2) {
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren = paren.saturating_sub(1);
            } else if paren == 0 && t.is_punct("{") {
                body = Some((j, match_forward(tokens, j, "{", "}")));
                break;
            } else if paren == 0 && t.is_punct(";") {
                break;
            }
        }
        fns.push(FnSpan {
            name: name_tok.text.clone(),
            kw: i,
            body,
        });
    }
    fns
}

fn find_tests(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let close = match_forward(tokens, i + 1, "[", "]");
        let inner: Vec<&str> = tokens[i + 2..close]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        let is_test_attr = inner == ["test"] || inner == ["cfg", "(", "test", ")"];
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = close + 1;
        while j + 1 < tokens.len() && tokens[j].is_punct("#") && tokens[j + 1].is_punct("[") {
            j = match_forward(tokens, j + 1, "[", "]") + 1;
        }
        // Find the item body.
        let mut paren = 0usize;
        let mut k = j;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren = paren.saturating_sub(1);
            } else if paren == 0 && t.is_punct("{") {
                spans.push((i, match_forward(tokens, k, "{", "}")));
                break;
            } else if paren == 0 && t.is_punct(";") {
                break; // `#[cfg(test)] use ...;`
            }
            k += 1;
        }
        i = close + 1;
    }
    spans
}

// ---------------------------------------------------------------------------
// Rule 1: lock-discipline
// ---------------------------------------------------------------------------

/// Callee names that perform file I/O, fsync, serialisation, or further
/// locking — none may be reached while a shard guard is live.  The helper
/// names are the store's own I/O-wrapping functions; keeping them here (as
/// data, reported by name) is what lets the rule see through one call
/// level without building a call graph.
const LOCK_BANNED_CALLS: &[&str] = &[
    // file I/O and durability primitives
    "sync_data",
    "sync_all",
    "write_all",
    "flush",
    "sync",
    // serialisation
    "to_binary",
    "to_blob",
    // WAL operations (append/commit/rotate all touch the filesystem)
    "append",
    "commit",
    "commit_group",
    "rotate",
    "reabsorb",
    "retire",
    // store-internal helpers that wrap I/O
    "insert_locked",
    "commit_wal_locked",
    "freeze",
    "unfreeze",
    "install_in_memory",
    // the one seal sequence (build, blob publish, manifest commit) and its
    // parts: off-lock by contract, so reaching any of them under a live
    // shard guard is a finding
    "seal_frozen",
    "build_task",
    "complete_seal",
    "commit_durable",
    "write_segment_blob",
];

/// Qualified-path prefixes whose associated calls are always I/O.
const LOCK_BANNED_PATHS: &[&str] = &[
    "fs",
    "vfs",
    "File",
    "OpenOptions",
    "PartitionWal",
    "Manifest",
];

/// `.read()` / `.write()` (zero-arg: the RwLock shape, not `io::Write`) or
/// `write_shard(` / `read_shard(` at `i`.  With `include_mutex`, zero-arg
/// `.lock()` counts too — used for `pds-server`, where the connection-queue
/// `Mutex` must never be held across I/O or store calls.  (Store files keep
/// `include_mutex` off: the WAL's internal mutex exists precisely to
/// serialise its own file I/O.)  Returns `(last_token_of_pattern,
/// description)`.
fn acquisition_at(tokens: &[Token], i: usize, include_mutex: bool) -> Option<(usize, String)> {
    if tokens[i].is_punct(".")
        && tokens.get(i + 1).is_some_and(|t| {
            t.is_ident("read") || t.is_ident("write") || (include_mutex && t.is_ident("lock"))
        })
        && tokens.get(i + 2).is_some_and(|t| t.is_punct("("))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct(")"))
    {
        return Some((i + 3, format!(".{}()", tokens[i + 1].text)));
    }
    if (tokens[i].is_ident("write_shard") || tokens[i].is_ident("read_shard"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
        && !(i > 0 && tokens[i - 1].is_ident("fn"))
    {
        return Some((i + 1, format!("{}( )", tokens[i].text)));
    }
    None
}

/// Walk back from the acquisition to the start of its statement; if the
/// statement is a simple `let [mut] name = ...`, return the binding.
fn find_binding(tokens: &[Token], lo: usize, acq: usize) -> Option<(usize, String)> {
    let mut j = acq;
    while j > lo {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return None;
        }
        if t.is_ident("let") {
            let name_idx = if tokens.get(j + 1).is_some_and(|t| t.is_ident("mut")) {
                j + 2
            } else {
                j + 1
            };
            let name = tokens.get(name_idx)?;
            let eq = tokens.get(name_idx + 1)?;
            if name.kind == TokKind::Ident && eq.is_punct("=") {
                return Some((j, name.text.clone()));
            }
            return None; // destructuring / ascription: treat as temporary
        }
    }
    None
}

fn lock_discipline(model: &SourceModel, include_mutex: bool, out: &mut Vec<Diagnostic>) {
    let tokens = &model.tokens;
    for f in &model.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut i = open;
        while i < close {
            if model.in_test(i) {
                i += 1;
                continue;
            }
            // `capture_cut(parts, f)` runs `f` under each shard's guard.
            if tokens[i].is_ident("capture_cut")
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
            {
                let (end, line) = (match_forward(tokens, i + 1, "(", ")"), tokens[i].line);
                let label = "the `capture_cut` shard guard";
                scan_lock_window(model, i + 2, end, label, line, include_mutex, out);
                i = end;
                continue;
            }
            let Some((acq_end, desc)) = acquisition_at(tokens, i, include_mutex) else {
                i += 1;
                continue;
            };
            let guard_line = tokens[i].line;
            let binding = find_binding(tokens, open, i);
            let (win_start, win_end, label) = match &binding {
                Some((let_idx, name)) => {
                    // Window: from the acquisition to the end of the block
                    // holding the `let`, cut short by `drop(name)`.
                    let mut depth = 0usize;
                    let mut block_open = open;
                    for j in (open..*let_idx).rev() {
                        if tokens[j].is_punct("}") {
                            depth += 1;
                        } else if tokens[j].is_punct("{") {
                            if depth == 0 {
                                block_open = j;
                                break;
                            }
                            depth -= 1;
                        }
                    }
                    let mut end = match_forward(tokens, block_open, "{", "}").min(close);
                    // `drop(name)` releases the guard early.
                    let mut j = acq_end + 1;
                    while j + 3 <= end {
                        if tokens[j].is_ident("drop")
                            && tokens[j + 1].is_punct("(")
                            && tokens[j + 2].is_ident(name)
                            && tokens[j + 3].is_punct(")")
                        {
                            end = j;
                            break;
                        }
                        j += 1;
                    }
                    (acq_end + 1, end, format!("guard `{name}`"))
                }
                None => {
                    // Temporary guard: lives to the end of its statement.
                    let mut depth = 0isize;
                    let mut end = close;
                    let mut j = acq_end + 1;
                    while j < close {
                        let t = &tokens[j];
                        if t.is_punct("{") {
                            depth += 1;
                        } else if t.is_punct("}") {
                            depth -= 1;
                            if depth < 0 {
                                end = j;
                                break;
                            }
                        } else if t.is_punct(";") && depth == 0 {
                            end = j;
                            break;
                        }
                        j += 1;
                    }
                    (acq_end + 1, end, format!("temporary {desc} guard"))
                }
            };
            scan_lock_window(
                model,
                win_start,
                win_end,
                &label,
                guard_line,
                include_mutex,
                out,
            );
            i = acq_end + 1;
        }
    }
}

fn scan_lock_window(
    model: &SourceModel,
    start: usize,
    end: usize,
    label: &str,
    guard_line: u32,
    include_mutex: bool,
    out: &mut Vec<Diagnostic>,
) {
    let tokens = &model.tokens;
    let mut b = start;
    while b < end {
        if model.in_test(b) {
            b += 1;
            continue;
        }
        let t = &tokens[b];
        // Qualified I/O call: `fs::rename(...)`, `File::create(...)`, ...
        if t.kind == TokKind::Ident
            && LOCK_BANNED_PATHS.contains(&t.text.as_str())
            && tokens.get(b + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(b + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && tokens.get(b + 3).is_some_and(|n| n.is_punct("("))
        {
            out.push(Diagnostic {
                file: model.display(),
                line: tokens[b + 2].line,
                col: tokens[b + 2].col,
                rule: RULE_LOCK,
                message: format!(
                    "`{}::{}` called while {label} (line {guard_line}) is held",
                    t.text,
                    tokens[b + 2].text
                ),
            });
            b += 4;
            continue;
        }
        // Nested lock acquisition.
        if let Some((acq_end, desc)) = acquisition_at(tokens, b, include_mutex) {
            out.push(Diagnostic {
                file: model.display(),
                line: t.line,
                col: t.col,
                rule: RULE_LOCK,
                message: format!("{desc} acquired while {label} (line {guard_line}) is still held"),
            });
            b = acq_end + 1;
            continue;
        }
        // Banned callee by name.  A zero-arg `load()` is a segment handle's
        // first-touch synopsis-block read (an atomic's `load(order)` is not).
        let block_load = t.is_ident("load") && tokens.get(b + 2).is_some_and(|n| n.is_punct(")"));
        if t.kind == TokKind::Ident
            && (LOCK_BANNED_CALLS.contains(&t.text.as_str()) || block_load)
            && tokens.get(b + 1).is_some_and(|n| n.is_punct("("))
            && !(b > 0 && tokens[b - 1].is_ident("fn"))
            && !(b > 0 && tokens[b - 1].is_punct("::"))
        {
            out.push(Diagnostic {
                file: model.display(),
                line: t.line,
                col: t.col,
                rule: RULE_LOCK,
                message: format!(
                    "`{}` (I/O or serialisation) called while {label} (line {guard_line}) is held",
                    t.text
                ),
            });
        }
        b += 1;
    }
}

// ---------------------------------------------------------------------------
// Rule 2: panic-freedom
// ---------------------------------------------------------------------------

/// The durability-critical files: decoders and recovery code that must
/// degrade to `PdsError`, never panic, on arbitrary bytes.
const PANIC_FILES: &[&str] = &[
    "crates/core/src/binio.rs",
    "crates/store/src/wal.rs",
    "crates/store/src/manifest.rs",
    "crates/store/src/segment.rs",
    // Telemetry records inside shard-guard windows and renders on the
    // serving path: a panic here would turn an observability feature into
    // an availability bug.
    "crates/core/src/telemetry.rs",
    "crates/store/src/telemetry.rs",
    // Every durable byte of the store flows through the vfs passthrough;
    // a panic here would sit under every WAL append and manifest publish.
    "crates/core/src/vfs.rs",
    // The block-structured blob codec decodes untrusted footer/meta/block
    // bytes both at reopen and lazily on the serving path.
    "crates/store/src/blob.rs",
    // The store's whole read side — everything a network front-end exposes
    // directly (`pds-server` routes client commands here).  The write paths
    // stay in `store.rs`, outside the rule: a writer observing lock poison
    // *must* panic rather than keep mutating.
    "crates/store/src/query.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Identifiers that, seen *anywhere earlier in the enclosing scope*, count
/// as bounds-guard evidence for an index expression.  Coarse by design —
/// the rule is a reviewer aid with an explicit allow hatch, not a prover.
const GUARD_EVIDENCE: &[&str] = &[
    "len",
    "remaining",
    "is_empty",
    "chunks",
    "chunks_exact",
    "windows",
    "split_at",
    "split_first",
    "split_last",
    "get",
    "partition_point",
    "min",
    "max",
    "clamp",
];

/// Whole-file panic-freedom: the durability-critical files (the store's
/// read side among them) and every non-test line of `pds-server`.
fn panic_freedom(model: &SourceModel, context: &str, out: &mut Vec<Diagnostic>) {
    let tokens = &model.tokens;
    for i in 0..tokens.len() {
        if model.in_test(i) {
            continue;
        }
        let t = &tokens[i];
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
            && i > 0
            && tokens[i - 1].is_punct(".")
        {
            out.push(Diagnostic {
                file: model.display(),
                line: t.line,
                col: t.col,
                rule: RULE_PANIC,
                message: format!(
                    "`.{}()` in {context}: hostile input must surface as an \
                     error, not a panic",
                    t.text
                ),
            });
            continue;
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            out.push(Diagnostic {
                file: model.display(),
                line: t.line,
                col: t.col,
                rule: RULE_PANIC,
                message: format!("`{}!` in {context}", t.text),
            });
            continue;
        }
        if t.is_punct("[") && is_index_site(tokens, i) && !index_is_guarded(model, i) {
            out.push(Diagnostic {
                file: model.display(),
                line: t.line,
                col: t.col,
                rule: RULE_PANIC,
                message: "indexing without visible bounds guard (no length \
                          check, mask, or slicing helper in scope)"
                    .to_string(),
            });
        }
    }
}

/// Is the `[` at `i` an index operation (as opposed to an array literal,
/// slice type, attribute, or macro bracket)?
fn is_index_site(tokens: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !matches!(
            prev.text.as_str(),
            "if" | "else"
                | "match"
                | "return"
                | "in"
                | "let"
                | "mut"
                | "ref"
                | "move"
                | "as"
                | "break"
                | "continue"
                | "loop"
                | "while"
                | "for"
                | "impl"
                | "fn"
                | "pub"
                | "use"
                | "where"
                | "dyn"
                | "box"
                | "unsafe"
                | "static"
                | "const"
                | "type"
                | "enum"
                | "struct"
                | "trait"
                | "mod"
        ),
        TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
        _ => false,
    }
}

fn index_is_guarded(model: &SourceModel, i: usize) -> bool {
    let tokens = &model.tokens;
    // (a) `expr?[...]`: the value already passed a fallible check.
    if i > 0 && tokens[i - 1].is_punct("?") {
        return true;
    }
    let bracket_close = match_forward(tokens, i, "[", "]");
    // (b) mask / modulus / clamping inside the index expression.
    for t in &tokens[i + 1..bracket_close] {
        if t.is_punct("&") || t.is_punct("%") {
            return true;
        }
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "min" | "max" | "clamp") {
            return true;
        }
    }
    let (scope_open, _) = model.enclosing_scope(i);
    // (c) a bounds-related helper call earlier in the same scope.
    for j in scope_open..i {
        let t = &tokens[j];
        if t.kind == TokKind::Ident
            && GUARD_EVIDENCE.contains(&t.text.as_str())
            && tokens.get(j + 1).is_some_and(|n| n.is_punct("("))
        {
            return true;
        }
    }
    // (d) the indexed local is a fixed-size array literal bound in scope:
    //     `let [mut] name = [expr; N]`.
    if i > 0 && tokens[i - 1].kind == TokKind::Ident {
        let name = tokens[i - 1].text.as_str();
        for j in scope_open..i.saturating_sub(1) {
            if tokens[j].is_ident(name)
                && tokens.get(j + 1).is_some_and(|t| t.is_punct("="))
                && tokens.get(j + 2).is_some_and(|t| t.is_punct("["))
            {
                let close = match_forward(tokens, j + 2, "[", "]");
                if tokens[j + 2..close].iter().any(|t| t.is_punct(";")) {
                    return true;
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 3: binio-framing
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct EnvelopeSite {
    model_idx: usize,
    line: u32,
    col: u32,
    /// Resolved 4-byte magic as text, e.g. "PDSG"; `None` if unresolvable.
    magic: Option<String>,
    /// Token index of the call's `envelope` identifier.
    at: usize,
}

/// Collect `const NAME: [u8; 4] = *b"XXXX";` definitions of one file.
fn magic_consts(tokens: &[Token]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("const")
            && tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            // Look a few tokens ahead for `*b"...."` before the next
            // statement-level `;` (the `;` inside the `[u8; 4]` array type
            // does not terminate the declaration).
            let mut brackets = 0i32;
            for j in i + 2..(i + 16).min(tokens.len()) {
                if tokens[j].is_punct("[") {
                    brackets += 1;
                } else if tokens[j].is_punct("]") {
                    brackets -= 1;
                } else if tokens[j].is_punct(";") && brackets == 0 {
                    break;
                }
                if tokens[j].kind == TokKind::Str && tokens[j].text.starts_with("b\"") {
                    let lit = tokens[j]
                        .text
                        .trim_start_matches("b\"")
                        .trim_end_matches('"')
                        .to_string();
                    out.push((tokens[i + 1].text.clone(), lit));
                    break;
                }
            }
        }
    }
    out
}

/// Split the argument tokens of a call (starting at the `(` index) on
/// depth-1 commas; returns the token ranges of each argument.
fn call_args(tokens: &[Token], open_paren: usize) -> Vec<(usize, usize)> {
    let close = match_forward(tokens, open_paren, "(", ")");
    let mut args = Vec::new();
    let mut depth = 0isize;
    let mut start = open_paren + 1;
    for (j, t) in tokens.iter().enumerate().take(close).skip(open_paren + 1) {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            args.push((start, j));
            start = j + 1;
        }
    }
    if start < close {
        args.push((start, close));
    }
    args
}

fn resolve_magic(
    tokens: &[Token],
    arg: (usize, usize),
    consts: &[(String, String)],
) -> Option<String> {
    // Inline byte-string literal.
    for t in &tokens[arg.0..arg.1] {
        if t.kind == TokKind::Str && t.text.starts_with("b\"") {
            return Some(
                t.text
                    .trim_start_matches("b\"")
                    .trim_end_matches('"')
                    .to_string(),
            );
        }
    }
    // Last identifier, resolved against the same file's consts
    // (`Self::BINARY_MAGIC` → BINARY_MAGIC).
    let last_ident = tokens[arg.0..arg.1]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident)?;
    consts
        .iter()
        .find(|(name, _)| *name == last_ident.text)
        .map(|(_, lit)| lit.clone())
}

fn envelope_sites(
    models: &[&SourceModel],
    callee: &str, // "ByteWriter" or "ByteReader"
    magic_arg: usize,
) -> Vec<EnvelopeSite> {
    let mut sites = Vec::new();
    for (mi, model) in models.iter().enumerate() {
        let tokens = &model.tokens;
        let consts = magic_consts(tokens);
        for i in 0..tokens.len() {
            if model.in_test(i) {
                continue;
            }
            if tokens[i].is_ident(callee)
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|t| t.is_ident("envelope"))
                && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
            {
                let args = call_args(tokens, i + 3);
                let magic = args
                    .get(magic_arg)
                    .and_then(|&a| resolve_magic(tokens, a, &consts));
                sites.push(EnvelopeSite {
                    model_idx: mi,
                    line: tokens[i + 2].line,
                    col: tokens[i + 2].col,
                    magic,
                    at: i + 2,
                });
            }
        }
    }
    sites
}

fn binio_framing(models: &[&SourceModel], out: &mut Vec<Diagnostic>) {
    let writers = envelope_sites(models, "ByteWriter", 0);
    let readers = envelope_sites(models, "ByteReader", 2);

    // (a) Every writer magic has a matching reader somewhere.
    let reader_magics: HashSet<&str> = readers.iter().filter_map(|s| s.magic.as_deref()).collect();
    for w in &writers {
        match &w.magic {
            None => out.push(Diagnostic {
                file: models[w.model_idx].display(),
                line: w.line,
                col: w.col,
                rule: RULE_FRAMING,
                message: "envelope writer whose magic cannot be resolved to a \
                          local `const NAME: [u8; 4] = *b\"....\";` or inline literal"
                    .to_string(),
            }),
            Some(m) if !reader_magics.contains(m.as_str()) => out.push(Diagnostic {
                file: models[w.model_idx].display(),
                line: w.line,
                col: w.col,
                rule: RULE_FRAMING,
                message: format!(
                    "envelope writer for magic `{m}` has no matching \
                     `ByteReader::envelope` reader anywhere in the workspace"
                ),
            }),
            _ => {}
        }
    }

    // (b) In each reader function, the version must be checked before any
    // length-prefixed read.
    for r in &readers {
        let model = &models[r.model_idx];
        let tokens = &model.tokens;
        let Some((_, body_end)) = model.enclosing_fn(r.at).and_then(|f| f.body) else {
            continue;
        };
        let call_close = tokens
            .iter()
            .enumerate()
            .skip(r.at)
            .find(|(_, t)| t.is_punct("("))
            .map(|(j, _)| match_forward(tokens, j, "(", ")"))
            .unwrap_or(r.at);
        let mut version_checked = false;
        for j in call_close + 1..body_end {
            let t = &tokens[j];
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "get_len" | "get_varint" | "get_bytes")
                && tokens.get(j + 1).is_some_and(|n| n.is_punct("("))
            {
                if !version_checked {
                    out.push(Diagnostic {
                        file: model.display(),
                        line: t.line,
                        col: t.col,
                        rule: RULE_FRAMING,
                        message: format!(
                            "`{}` before any version check: a length-prefixed \
                             read must not trust bytes whose version was never \
                             compared",
                            t.text
                        ),
                    });
                }
                break; // only the first length read matters
            }
            // A comparison or match touching an ident containing "version".
            if t.kind == TokKind::Ident && t.text.contains("version") {
                let near = |k: usize| tokens.get(k).map(|n| n.text.as_str());
                for k in [j.wrapping_sub(1), j + 1] {
                    if matches!(near(k), Some("==" | "!=" | "<" | ">" | "<=" | ">=")) {
                        version_checked = true;
                    }
                }
                if j > 0 && tokens[j - 1].is_ident("match") {
                    version_checked = true;
                }
            }
        }
    }

    // (c) CRC pairing per crate: a crate whose functions produce CRC
    // trailers must also contain a verify site.
    let crate_of = |path: &Path| -> String {
        let s = path.to_string_lossy().replace('\\', "/");
        s.strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("probsyn")
            .to_string()
    };
    let mut producers: Vec<(String, usize, u32, u32)> = Vec::new(); // crate, model, line, col
    let mut verifier_crates: HashSet<String> = HashSet::new();
    for (mi, model) in models.iter().enumerate() {
        let tokens = &model.tokens;
        for f in &model.fns {
            let Some((a, b)) = f.body else { continue };
            if model.in_test(a) {
                continue;
            }
            let has = |name: &str| {
                tokens[a..b].iter().enumerate().any(|(off, t)| {
                    t.is_ident(name) && tokens.get(a + off + 1).is_some_and(|n| n.is_punct("("))
                })
            };
            let has_punct = |p: &str| tokens[a..b].iter().any(|t| t.is_punct(p));
            let crc_call = has("crc32");
            if has("append_crc32") || (crc_call && has("to_le_bytes")) {
                let kw = &tokens[f.kw];
                producers.push((crate_of(&model.path), mi, kw.line, kw.col));
            }
            if has("verify_crc32") || (crc_call && (has_punct("==") || has_punct("!="))) {
                verifier_crates.insert(crate_of(&model.path));
            }
        }
    }
    for (krate, mi, line, col) in producers {
        if !verifier_crates.contains(&krate) {
            out.push(Diagnostic {
                file: models[mi].display(),
                line,
                col,
                rule: RULE_FRAMING,
                message: format!(
                    "crate `{krate}` appends CRC trailers but contains no \
                     CRC verify site"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: crash-coverage
// ---------------------------------------------------------------------------

fn crash_coverage(
    models: &[&SourceModel],
    matrix_labels: &HashSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for model in models {
        let tokens = &model.tokens;
        // All `crashpoint::reached("label")` labels in this file, by index.
        let mut reached: Vec<(usize, String)> = Vec::new();
        for i in 0..tokens.len() {
            if model.in_test(i) {
                continue;
            }
            if tokens[i].is_ident("crashpoint")
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|t| t.is_ident("reached"))
                && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
                && tokens.get(i + 4).is_some_and(|t| t.kind == TokKind::Str)
            {
                let label = tokens[i + 4].text.trim_matches('"').to_string();
                if !matrix_labels.contains(&label) {
                    out.push(Diagnostic {
                        file: model.display(),
                        line: tokens[i + 4].line,
                        col: tokens[i + 4].col,
                        rule: RULE_CRASH,
                        message: format!(
                            "crash point `{label}` is not exercised by any row \
                             of the crash-matrix test (tests/store_crash_matrix.rs)"
                        ),
                    });
                }
                reached.push((i, label));
            }
        }
        // Every tmp-rename publish must be preceded (same function) by a
        // crash point.
        for i in 0..tokens.len() {
            if model.in_test(i) {
                continue;
            }
            // `fs::rename(from, to)` takes the source path first;
            // `vfs::rename(site, from, to)` carries its fault-site label
            // first, so the source path is the second argument.
            let from_arg = if tokens[i].is_ident("fs") {
                0
            } else if tokens[i].is_ident("vfs") {
                1
            } else {
                continue;
            };
            if !(tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|t| t.is_ident("rename"))
                && tokens.get(i + 3).is_some_and(|t| t.is_punct("(")))
            {
                continue;
            }
            let args = call_args(tokens, i + 3);
            let Some(&first) = args.get(from_arg) else {
                continue;
            };
            let is_publish = tokens[first.0..first.1].iter().any(|t| {
                t.kind == TokKind::Ident
                    && (t.text.to_lowercase().contains("tmp")
                        || t.text.to_lowercase().contains("staging"))
            });
            if !is_publish {
                continue;
            }
            let Some(f) = model.enclosing_fn(i) else {
                continue;
            };
            let Some((body_open, _)) = f.body else {
                continue;
            };
            let covered = reached.iter().any(|&(ri, _)| ri >= body_open && ri < i);
            if !covered {
                out.push(Diagnostic {
                    file: model.display(),
                    line: tokens[i + 2].line,
                    col: tokens[i + 2].col,
                    rule: RULE_CRASH,
                    message: format!(
                        "atomic tmp-rename publish in `{}` has no preceding \
                         `crashpoint::reached(..)` label",
                        f.name
                    ),
                });
            }
        }
    }
}

/// Extract the `label: "..."` strings from the crash-matrix test source.
fn matrix_labels(model: &SourceModel) -> HashSet<String> {
    let tokens = &model.tokens;
    let mut labels = HashSet::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("label")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(":"))
            && tokens.get(i + 2).is_some_and(|t| t.kind == TokKind::Str)
        {
            labels.insert(tokens[i + 2].text.trim_matches('"').to_string());
        }
    }
    labels
}

// ---------------------------------------------------------------------------
// Rule 5: vfs-discipline
// ---------------------------------------------------------------------------

/// Path prefixes whose associated calls reach the filesystem directly,
/// bypassing the `pds_core::vfs` passthrough (and with it the fault
/// injector, the retry policy and the I/O-error telemetry).
const VFS_BANNED_PATHS: &[&str] = &["fs", "File", "OpenOptions"];

/// Every durable byte of `crates/store` must flow through `pds_core::vfs`:
/// a direct `fs::`/`File::`/`OpenOptions::` call in non-test store code is
/// invisible to the fault matrix, untried by the retry policy, and
/// uncounted by the I/O-error telemetry.  Test modules are exempt (they
/// stage fixtures); anything else needs an
/// `// analyze:allow(vfs-discipline) <why>` justification.
fn vfs_discipline(model: &SourceModel, out: &mut Vec<Diagnostic>) {
    let tokens = &model.tokens;
    for i in 0..tokens.len() {
        if model.in_test(i) {
            continue;
        }
        let t = &tokens[i];
        if t.kind == TokKind::Ident
            && VFS_BANNED_PATHS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && tokens.get(i + 3).is_some_and(|n| n.is_punct("("))
            // `vfs::…` calls lex as `vfs :: fs`-free shapes already, but a
            // store-local `fs` module re-export would still be direct I/O —
            // only a preceding `vfs ::` qualification makes the call routed.
            && !(i >= 2 && tokens[i - 1].is_punct("::") && tokens[i - 2].is_ident("vfs"))
        {
            out.push(Diagnostic {
                file: model.display(),
                line: tokens[i + 2].line,
                col: tokens[i + 2].col,
                rule: RULE_VFS,
                message: format!(
                    "direct `{}::{}` call in store code: durable I/O must \
                     route through `pds_core::vfs` so the fault matrix, retry \
                     policy and I/O telemetry all see it",
                    t.text,
                    tokens[i + 2].text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

fn path_str(model: &SourceModel) -> String {
    model.path.to_string_lossy().replace('\\', "/")
}

/// Run every applicable rule over `models` and fold allow-suppression.
///
/// Scoping (by workspace-relative path):
/// * `lock-discipline` — files under `crates/store/src` (shard-lock shapes)
///   and `crates/server/src` (additionally treating zero-arg `.lock()` as
///   an acquisition: the server may hold no lock across I/O or store
///   calls); `crates/core/src/telemetry.rs` gets the mutex-inclusive pass
///   too (the registry mutex may never be held across I/O or another lock);
/// * `vfs-discipline` — files under `crates/store/src` (durable I/O must
///   route through `pds_core::vfs`, not raw `fs`/`File`/`OpenOptions`);
/// * `crash-coverage` — files under `crates/store/src`;
/// * `panic-freedom` — the durability-critical files (`PANIC_FILES`, see
///   crate docs; `crates/store/src/query.rs`, the store's read side, is one
///   of them) and the whole of `crates/server/src` (the serving path:
///   hostile bytes must cost an `ERR` line, never the process);
/// * `binio-framing` — all `src` files;
/// * files under `tests/` participate only as the crash-matrix label list.
pub fn analyze_sources(models: &[SourceModel]) -> Report {
    let mut raw: Vec<Diagnostic> = Vec::new();

    let src_models: Vec<&SourceModel> = models
        .iter()
        .filter(|m| !path_str(m).contains("tests/"))
        .collect();

    for model in &src_models {
        let p = path_str(model);
        if p.contains("crates/store/src") {
            lock_discipline(model, false, &mut raw);
            vfs_discipline(model, &mut raw);
        }
        if p.contains("crates/server/src") {
            lock_discipline(model, true, &mut raw);
            panic_freedom(model, "the serving path", &mut raw);
        }
        if p.ends_with("crates/core/src/telemetry.rs") {
            // The registry/render mutex is the only lock telemetry owns;
            // it must never be held across I/O or another acquisition.
            lock_discipline(model, true, &mut raw);
        }
        if PANIC_FILES.iter().any(|f| p.ends_with(f)) {
            panic_freedom(model, "durability-critical code", &mut raw);
        }
    }

    // binio-framing needs cross-file sight; give it every src model.
    binio_framing(&src_models, &mut raw);

    // crash-coverage: store src files + the matrix label list.
    let labels: HashSet<String> = models
        .iter()
        .filter(|m| path_str(m).ends_with("store_crash_matrix.rs"))
        .flat_map(|m| matrix_labels(m).into_iter())
        .collect();
    let store_models: Vec<&SourceModel> = src_models
        .iter()
        .copied()
        .filter(|m| path_str(m).contains("crates/store/src"))
        .collect();
    crash_coverage(&store_models, &labels, &mut raw);

    // Allow suppression + accounting.
    let mut report = Report {
        files_scanned: models.len(),
        ..Report::default()
    };
    let mut allow_uses: Vec<Vec<usize>> = models.iter().map(|m| vec![0; m.allows.len()]).collect();
    'diag: for d in raw {
        for (mi, model) in models.iter().enumerate() {
            if model.display() != d.file {
                continue;
            }
            for (ai, allow) in model.allows.iter().enumerate() {
                if allow.rule == d.rule && allow_covers(model, allow, d.line) {
                    allow_uses[mi][ai] += 1;
                    continue 'diag;
                }
            }
        }
        report.diagnostics.push(d);
    }
    for (mi, model) in models.iter().enumerate() {
        for (ai, allow) in model.allows.iter().enumerate() {
            let uses = allow_uses[mi][ai];
            report.allows.push(AllowRecord {
                file: model.display(),
                line: allow.line,
                rule: allow.rule.clone(),
                justification: allow.justification.clone(),
                uses,
            });
            if allow.justification.is_empty() {
                report.diagnostics.push(Diagnostic {
                    file: model.display(),
                    line: allow.line,
                    col: 1,
                    rule: RULE_ALLOW,
                    message: format!(
                        "`analyze:allow({})` without a justification — say why \
                         the pattern is safe",
                        allow.rule
                    ),
                });
            } else if uses == 0 {
                report.diagnostics.push(Diagnostic {
                    file: model.display(),
                    line: allow.line,
                    col: 1,
                    rule: RULE_ALLOW,
                    message: format!(
                        "unused `analyze:allow({})`: the code below no longer \
                         trips the rule — delete the annotation",
                        allow.rule
                    ),
                });
            }
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report.diagnostics.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.col == b.col && a.rule == b.rule
    });
    report
}

/// Does `allow` suppress a finding at `line`?
///
/// An allow covers its own line and the next line; when the next item (≤ 2
/// lines below, attributes in between allowed) is a `fn`, it covers the
/// whole function body — that is the documented fn-level form.
fn allow_covers(model: &SourceModel, allow: &Allow, line: u32) -> bool {
    if line == allow.line || line == allow.line + 1 {
        return true;
    }
    for f in &model.fns {
        let kw_line = model.tokens[f.kw].line;
        if (allow.line + 1..=allow.line + 2).contains(&kw_line) {
            if let Some((_, close)) = f.body {
                let end_line = model.tokens[close].line;
                if (kw_line..=end_line).contains(&line) {
                    return true;
                }
            }
        }
    }
    false
}

/// Walk a workspace root and analyse every `src/**/*.rs` file of the root
/// package and the `crates/*` packages, plus the crash-matrix test (label
/// list only).  `vendor/`, `target/`, `examples/`, `benches/` and `tests/`
/// are excluded.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files: Vec<(PathBuf, String)> = Vec::new();
    collect_rs(root, root, &mut files)?;
    let matrix = root.join("crates/store/tests/store_crash_matrix.rs");
    if matrix.is_file() {
        let text = std::fs::read_to_string(&matrix)?;
        files.push((
            PathBuf::from("crates/store/tests/store_crash_matrix.rs"),
            text,
        ));
    }
    let models: Vec<SourceModel> = files
        .into_iter()
        .map(|(p, s)| SourceModel::new(p, &s))
        .collect();
    Ok(analyze_sources(&models))
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "vendor" | "target" | "examples" | "benches" | "tests" | ".git" | ".github"
            ) {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            // Only package sources: root `src/` or `crates/*/src/`.
            let in_src = rel_str.starts_with("src/")
                || (rel_str.starts_with("crates/")
                    && rel_str
                        .splitn(3, '/')
                        .nth(2)
                        .is_some_and(|r| r.starts_with("src/")));
            if !in_src {
                continue;
            }
            let text = std::fs::read_to_string(&path)?;
            out.push((rel.to_path_buf(), text));
        }
    }
    Ok(())
}
