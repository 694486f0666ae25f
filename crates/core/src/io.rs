//! The line-oriented text format of stream records: the body of the
//! server's `INGEST` verb, and a way to dump a stream for inspection.

use std::io::{BufRead, Write};

use crate::error::{PdsError, Result};
use crate::stream::StreamRecord;

/// Serialises a sequence of stream records in a self-describing line format
/// (one record per line, no header — streams are unbounded and model-mixed):
///
/// ```text
/// b <item> <probability>            # basic tuple
/// x <item>:<prob> <item>:<prob> ... # x-tuple alternatives
/// v <item> <frequency>:<prob> ...   # value pdf for one item
/// ```
pub fn write_stream<'a, W: Write>(
    records: impl IntoIterator<Item = &'a StreamRecord>,
    mut out: W,
) -> Result<()> {
    let io_err = |e: std::io::Error| PdsError::InvalidParameter {
        message: format!("i/o error while writing stream: {e}"),
    };
    for record in records {
        match record {
            StreamRecord::Basic { item, prob } => {
                writeln!(out, "b {item} {prob}").map_err(io_err)?;
            }
            StreamRecord::Alternatives(alts) => {
                let alts: Vec<String> = alts.iter().map(|(i, p)| format!("{i}:{p}")).collect();
                writeln!(out, "x {}", alts.join(" ")).map_err(io_err)?;
            }
            StreamRecord::ValueDistribution { item, entries } => {
                let entries: Vec<String> =
                    entries.iter().map(|(v, p)| format!("{v}:{p}")).collect();
                writeln!(out, "v {item} {}", entries.join(" ")).map_err(io_err)?;
            }
        }
    }
    Ok(())
}

/// Parses a stream of records from the line format written by
/// [`write_stream`]; `#` comments and blank lines are ignored and every
/// record is validated on the way in.
pub fn read_stream<R: BufRead>(input: R) -> Result<Vec<StreamRecord>> {
    let mut records = Vec::new();
    for (line_no, line) in input.lines().enumerate() {
        let line = line.map_err(|e| PdsError::InvalidParameter {
            message: format!("i/o error while reading stream: {e}"),
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let tag = fields.next().unwrap_or_default();
        let parse_err = |what: &str| PdsError::InvalidParameter {
            message: format!("line {}: could not parse {what}: {line}", line_no + 1),
        };
        let record = match tag {
            "b" => {
                let record = StreamRecord::Basic {
                    item: fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| parse_err("item"))?,
                    prob: fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| parse_err("probability"))?,
                };
                if fields.next().is_some() {
                    // Merged lines or shifted columns must not drop data
                    // silently.
                    return Err(parse_err("record (unexpected trailing fields)"));
                }
                record
            }
            "x" => {
                let mut alts = Vec::new();
                for field in fields {
                    let (i, p) = field
                        .split_once(':')
                        .ok_or_else(|| parse_err("alternative"))?;
                    alts.push((
                        i.parse().map_err(|_| parse_err("alternative item"))?,
                        p.parse()
                            .map_err(|_| parse_err("alternative probability"))?,
                    ));
                }
                StreamRecord::Alternatives(alts)
            }
            "v" => {
                let item = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err("item"))?;
                let mut entries = Vec::new();
                for field in fields {
                    let (v, p) = field.split_once(':').ok_or_else(|| parse_err("entry"))?;
                    entries.push((
                        v.parse().map_err(|_| parse_err("entry frequency"))?,
                        p.parse().map_err(|_| parse_err("entry probability"))?,
                    ));
                }
                StreamRecord::ValueDistribution { item, entries }
            }
            _ => {
                return Err(PdsError::InvalidParameter {
                    message: format!("line {}: unknown stream record tag {tag:?}", line_no + 1),
                })
            }
        };
        record.validate()?;
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::test_workloads;

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\n\nb 0 0.5\n  # indented\n\t\nx 2:0.25 3:0.5\n";
        let records = read_stream(text.as_bytes()).unwrap();
        assert_eq!(
            records,
            vec![
                StreamRecord::Basic { item: 0, prob: 0.5 },
                StreamRecord::Alternatives(vec![(2, 0.25), (3, 0.5)]),
            ]
        );
    }

    #[test]
    fn malformed_inputs_are_rejected_with_context() {
        // The error names the 1-based line (comments and blank lines count)
        // and what could not be parsed.
        let err = read_stream("# header\nb 0 0.5\n\nb x 0.5\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(err.to_string().contains("item"), "{err}");
        let err = read_stream("z 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("\"z\""), "{err}");
    }

    #[test]
    fn stream_records_round_trip_through_the_line_format() {
        use crate::stream::records_of;
        for w in test_workloads(16, 4) {
            let records = records_of(&w.relation);
            let mut buf = Vec::new();
            write_stream(&records, &mut buf).unwrap();
            let back = read_stream(buf.as_slice()).unwrap();
            assert_eq!(records, back, "{}", w.name);
        }
    }

    #[test]
    fn malformed_stream_records_are_rejected() {
        assert!(read_stream("b 0\n".as_bytes()).is_err()); // missing prob
        assert!(read_stream("b 3 0.5 0.9\n".as_bytes()).is_err()); // trailing field
        assert!(read_stream("b 0 2.0\n".as_bytes()).is_err()); // invalid prob
        assert!(read_stream("x 1 0.5\n".as_bytes()).is_err()); // missing `:`
        assert!(read_stream("v 0 1.0\n".as_bytes()).is_err()); // missing `:p`
        assert!(read_stream("q 0 0.5\n".as_bytes()).is_err()); // unknown tag
        assert!(read_stream("# ok\n\nb 3 0.5\n".as_bytes()).is_ok());
    }
}
