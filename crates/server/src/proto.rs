//! The command-protocol decode surface: one parsed [`Command`] per input
//! line.
//!
//! Kept free of any I/O so the whole surface is a pure
//! `bytes -> Result<Command, ProtoError>` function — the pds-analyze
//! fuzzer mutates it directly (corpus tag `cmd`), and the panic-freedom
//! rule holds it to "arbitrary bytes must parse or reject, never panic".

use std::fmt;

/// Hard cap on accepted command-line length, mirrored by the transport's
/// per-line byte cap: parsing is O(len), so unbounded lines would let one
/// client buy unbounded work.
pub const MAX_COMMAND_BYTES: usize = 4096;

/// One parsed client command (see the crate docs for the wire grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `PING` — liveness probe.
    Ping,
    /// `EST <item>` — point estimate.
    Est {
        /// Item whose expected frequency is requested.
        item: usize,
    },
    /// `RANGE <lo> <hi>` — inclusive range estimate.
    Range {
        /// Lower end of the inclusive item range.
        lo: usize,
        /// Upper end of the inclusive item range.
        hi: usize,
    },
    /// `STATS [JSON]` — point-in-time store counters, as the classic
    /// `key=value` line or (with `JSON`) the versioned JSON envelope.
    Stats {
        /// `true` for `STATS JSON`: reply with the stable JSON form.
        json: bool,
    },
    /// `MERGE <b>` — global `b`-bucket merged histogram (binary body).
    Merge {
        /// Bucket budget of the merged histogram.
        b: usize,
    },
    /// `INGEST <count>` — the next `count` lines are stream records.
    Ingest {
        /// Number of stream-format lines that follow.
        count: usize,
    },
    /// `SEAL` — seal every live memtable.
    Seal,
    /// `SNAPSHOT` — seal and serialise the store (binary body).
    Snapshot,
    /// `METRICS [EVENTS]` — telemetry scrape (binary body): the
    /// Prometheus-style text exposition, or (with `EVENTS`) the recent
    /// decoded event lines.
    Metrics {
        /// `true` for `METRICS EVENTS`: reply with the event dump.
        events: bool,
    },
    /// `HEALTH` — store health probe: `OK healthy`, or
    /// `OK degraded <cause>` once the store has entered its sticky
    /// degraded read-only mode.
    Health,
    /// `QUIT` — close the connection.
    Quit,
}

/// A rejected command line: the reason, ready to ship as an `ERR` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> ProtoError {
        ProtoError {
            message: message.into(),
        }
    }

    /// The reason, sanitised to a single line (control bytes become
    /// spaces) so it can never break the line protocol it travels on.
    pub fn message(&self) -> String {
        self.message
            .chars()
            .map(|c| if c.is_control() { ' ' } else { c })
            .collect()
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message())
    }
}

impl std::error::Error for ProtoError {}

/// Parses one command line (without its trailing newline; a stray `\r` or
/// surrounding whitespace is tolerated).  Total: every input either parses
/// to a [`Command`] or returns a [`ProtoError`] — never a panic.
fn parse_command(line: &str) -> Result<Command, ProtoError> {
    if line.len() > MAX_COMMAND_BYTES {
        return Err(ProtoError::new(format!(
            "command line exceeds {MAX_COMMAND_BYTES} bytes"
        )));
    }
    let mut fields = line.split_ascii_whitespace();
    let Some(verb) = fields.next() else {
        return Err(ProtoError::new("empty command"));
    };
    let command = match verb {
        "PING" => Command::Ping,
        "EST" => Command::Est {
            item: arg_usize(&mut fields, "EST", "item")?,
        },
        "RANGE" => Command::Range {
            lo: arg_usize(&mut fields, "RANGE", "lo")?,
            hi: arg_usize(&mut fields, "RANGE", "hi")?,
        },
        "STATS" => Command::Stats {
            json: opt_keyword(&mut fields, "STATS", "JSON")?,
        },
        "MERGE" => Command::Merge {
            b: arg_usize(&mut fields, "MERGE", "b")?,
        },
        "INGEST" => Command::Ingest {
            count: arg_usize(&mut fields, "INGEST", "count")?,
        },
        "SEAL" => Command::Seal,
        "SNAPSHOT" => Command::Snapshot,
        "METRICS" => Command::Metrics {
            events: opt_keyword(&mut fields, "METRICS", "EVENTS")?,
        },
        "HEALTH" => Command::Health,
        "QUIT" => Command::Quit,
        other => {
            return Err(ProtoError::new(format!(
                "unknown command {:?} (expected PING, EST, RANGE, STATS, MERGE, \
                 INGEST, SEAL, SNAPSHOT, METRICS, HEALTH or QUIT)",
                truncate_for_error(other)
            )))
        }
    };
    if let Some(extra) = fields.next() {
        return Err(ProtoError::new(format!(
            "trailing field {:?} after {verb}",
            truncate_for_error(extra)
        )));
    }
    Ok(command)
}

/// Parses one command line from raw bytes: invalid UTF-8 is a [`ProtoError`],
/// not a panic.  The fuzzer's entry point.
pub fn parse_command_bytes(bytes: &[u8]) -> Result<Command, ProtoError> {
    match std::str::from_utf8(bytes) {
        Ok(text) => parse_command(text.trim_end_matches(['\r', '\n'])),
        Err(_) => Err(ProtoError::new("command line is not valid UTF-8")),
    }
}

/// Accepts an optional bare keyword argument: absent → `false`, exactly
/// `keyword` → `true`, anything else → a [`ProtoError`] naming it.
fn opt_keyword<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    verb: &str,
    keyword: &str,
) -> Result<bool, ProtoError> {
    match fields.next() {
        None => Ok(false),
        Some(raw) if raw == keyword => Ok(true),
        Some(raw) => Err(ProtoError::new(format!(
            "{verb} takes no argument or {keyword}, got {:?}",
            truncate_for_error(raw)
        ))),
    }
}

fn arg_usize<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    verb: &str,
    name: &str,
) -> Result<usize, ProtoError> {
    let Some(raw) = fields.next() else {
        return Err(ProtoError::new(format!("{verb} is missing <{name}>")));
    };
    raw.parse().map_err(|_| {
        ProtoError::new(format!(
            "{verb} <{name}> must be an unsigned integer, got {:?}",
            truncate_for_error(raw)
        ))
    })
}

/// Bound quoted user input inside error messages.
fn truncate_for_error(field: &str) -> String {
    const MAX: usize = 32;
    if field.len() <= MAX {
        field.to_string()
    } else {
        let prefix: String = field.chars().take(MAX).collect();
        format!("{prefix}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_commands_parse() {
        assert_eq!(parse_command("PING"), Ok(Command::Ping));
        assert_eq!(parse_command("EST 17"), Ok(Command::Est { item: 17 }));
        assert_eq!(
            parse_command("  RANGE 3 250  "),
            Ok(Command::Range { lo: 3, hi: 250 })
        );
        assert_eq!(parse_command("STATS"), Ok(Command::Stats { json: false }));
        assert_eq!(
            parse_command("STATS JSON"),
            Ok(Command::Stats { json: true })
        );
        assert_eq!(parse_command("MERGE 8"), Ok(Command::Merge { b: 8 }));
        assert_eq!(
            parse_command("INGEST 1024"),
            Ok(Command::Ingest { count: 1024 })
        );
        assert_eq!(parse_command("SEAL"), Ok(Command::Seal));
        assert_eq!(parse_command("SNAPSHOT"), Ok(Command::Snapshot));
        assert_eq!(
            parse_command("METRICS"),
            Ok(Command::Metrics { events: false })
        );
        assert_eq!(
            parse_command("METRICS EVENTS"),
            Ok(Command::Metrics { events: true })
        );
        assert_eq!(parse_command("HEALTH"), Ok(Command::Health));
        assert_eq!(parse_command("QUIT"), Ok(Command::Quit));
        assert_eq!(
            parse_command_bytes(b"EST 2\r\n"),
            Ok(Command::Est { item: 2 })
        );
    }

    #[test]
    fn malformed_commands_reject_with_single_line_reasons() {
        for bad in [
            "",
            "   ",
            "est 1",
            "EST",
            "EST -1",
            "EST 1 2",
            "EST 99999999999999999999999999",
            "RANGE 1",
            "RANGE a b",
            "MERGE",
            "INGEST 1 2",
            "BOGUS 4",
            "FLUSH",
            "PING extra",
            "QUIT now",
            "STATS BOGUS",
            "STATS JSON extra",
            "METRICS BOGUS",
            "METRICS EVENTS extra",
            "HEALTH now",
        ] {
            let err = parse_command(bad).expect_err(bad);
            assert!(!err.message().is_empty());
            assert!(
                !err.message().contains(['\n', '\r']),
                "error for {bad:?} must stay on one line"
            );
        }
        assert!(parse_command_bytes(&[0xFF, 0xFE, b'\n']).is_err());
        let long = "EST ".to_string() + &"1".repeat(MAX_COMMAND_BYTES);
        assert!(parse_command(&long).is_err());
    }

    #[test]
    fn error_messages_bound_hostile_input() {
        let huge_verb = "A".repeat(2048);
        let err = parse_command(&huge_verb).expect_err("unknown verb");
        assert!(err.message().len() < 200, "{}", err.message().len());
    }
}
