//! Trace and profile exporters: JSONL for events, CSV for profile tables,
//! plus a strict line-oriented JSONL parser so external validators (the
//! CI smoke binary) can re-read traces without a JSON dependency.
//!
//! One event is one JSON object on one line, flat, with only string /
//! unsigned-integer / boolean values — e.g.
//!
//! ```text
//! {"worker":0,"seq":3,"type":"rule_fired","rule":5,"level":1}
//! ```
//!
//! `rule` fields are exported 1-based (`5 ↦ ρ5`) to match the paper's
//! naming; in-memory [`ChaseEvent::RuleFired`] keeps the dense 0-based
//! index. An empty trace exports as an empty file, which is valid JSONL.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::event::{ChaseEvent, Recorded, SpanKind};
use crate::profile::ChaseProfile;
use crate::tracer::TraceSnapshot;
use crate::RULE_COUNT;

/// Renders one recorded event as a single JSONL line (no trailing
/// newline).
pub fn event_to_json(rec: &Recorded) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"worker\":{},\"seq\":{},\"type\":\"{}\"",
        rec.worker,
        rec.seq,
        rec.event.type_name()
    );
    match rec.event {
        ChaseEvent::RuleFired { rule, level } => {
            let _ = write!(s, ",\"rule\":{},\"level\":{}", u32::from(rule) + 1, level);
        }
        ChaseEvent::EgdMerge { merged, depth } => {
            let _ = write!(s, ",\"merged\":{merged},\"depth\":{depth}");
        }
        ChaseEvent::NullInvented { null, level } => {
            let _ = write!(s, ",\"null\":{null},\"level\":{level}");
        }
        ChaseEvent::Frontier {
            round,
            max_level,
            frontier,
            atoms,
        } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"max_level\":{max_level},\"frontier\":{frontier},\"atoms\":{atoms}"
            );
        }
        ChaseEvent::GovernorStop { reason } => {
            let _ = write!(s, ",\"reason\":{reason}");
        }
        ChaseEvent::HomExpand { depth }
        | ChaseEvent::HomBacktrack { depth }
        | ChaseEvent::HomPrune { depth } => {
            let _ = write!(s, ",\"depth\":{depth}");
        }
        ChaseEvent::CacheLookup { hit } => {
            let _ = write!(s, ",\"hit\":{hit}");
        }
        ChaseEvent::SpanStart { span } => {
            let _ = write!(s, ",\"span\":\"{}\"", span.name());
        }
        ChaseEvent::SpanEnd { span, nanos } => {
            let _ = write!(s, ",\"span\":\"{}\",\"nanos\":{nanos}", span.name());
        }
        ChaseEvent::Bound {
            level_bound,
            theorem_bound,
        } => {
            let _ = write!(
                s,
                ",\"level_bound\":{level_bound},\"theorem_bound\":{theorem_bound}"
            );
        }
        ChaseEvent::DiscoveryChunk {
            conjuncts,
            candidates,
        } => {
            let _ = write!(s, ",\"conjuncts\":{conjuncts},\"candidates\":{candidates}");
        }
    }
    s.push('}');
    s
}

/// Writes a snapshot as JSONL, one event per line, in the snapshot's
/// deterministic `(worker, seq)` order. An empty snapshot writes nothing.
pub fn write_jsonl<W: Write>(mut out: W, snapshot: &TraceSnapshot) -> io::Result<()> {
    for rec in &snapshot.events {
        out.write_all(event_to_json(rec).as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// The per-rule firing histogram as CSV (`rule,firings`; rules 1-based,
/// all twelve rows always present).
pub fn rule_profile_csv(profile: &ChaseProfile) -> String {
    let mut s = String::from("rule,firings\n");
    for (i, &count) in profile.rule_firings.iter().enumerate() {
        let _ = writeln!(s, "rho{},{}", i + 1, count);
    }
    debug_assert_eq!(profile.rule_firings.len(), RULE_COUNT);
    s
}

/// The per-level growth curve as CSV (`level,created,invented`). An empty
/// profile yields just the header, which is a valid (empty) CSV table.
pub fn level_growth_csv(profile: &ChaseProfile) -> String {
    let mut s = String::from("level,created,invented\n");
    for lg in &profile.level_growth {
        let _ = writeln!(s, "{},{},{}", lg.level, lg.created, lg.inventions);
    }
    s
}

/// A scalar value in a flat JSONL event object.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Scalar {
    /// A quoted string (no escapes — the exporter never emits any).
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
}

/// Parses one flat JSON object of the exporter's shape. Strict: rejects
/// nesting, escapes, floats, and trailing garbage.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // Key: "name"
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected quoted key at: {rest:?}"))?;
        let close = after_quote
            .find('"')
            .ok_or_else(|| format!("unterminated key at: {rest:?}"))?;
        let key = after_quote[..close].to_string();
        rest = after_quote[close + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key {key:?}"))?
            .trim_start();
        // Value: string, integer, or boolean.
        let (value, remainder) = if let Some(after) = rest.strip_prefix('"') {
            let close = after
                .find('"')
                .ok_or_else(|| format!("unterminated string value for {key:?}"))?;
            let v = &after[..close];
            if v.contains('\\') {
                return Err(format!("escape sequences unsupported in value for {key:?}"));
            }
            (Scalar::Str(v.to_string()), &after[close + 1..])
        } else {
            let end = rest
                .find([',', '}'])
                .map_or(rest.len(), |i| i.min(rest.len()));
            let token = rest[..end].trim();
            let value = match token {
                "true" => Scalar::Bool(true),
                "false" => Scalar::Bool(false),
                t => Scalar::Int(
                    t.parse::<u64>()
                        .map_err(|_| format!("bad scalar {t:?} for key {key:?}"))?,
                ),
            };
            (value, &rest[end..])
        };
        fields.push((key, value));
        rest = remainder.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            if rest.is_empty() {
                return Err("trailing comma".to_string());
            }
        } else if !rest.is_empty() {
            return Err(format!("trailing garbage: {rest:?}"));
        }
    }
    Ok(fields)
}

/// Looks a key up in a parsed flat object.
fn field<'a>(fields: &'a [(String, Scalar)], key: &str) -> Result<&'a Scalar, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn int_field(fields: &[(String, Scalar)], key: &str) -> Result<u64, String> {
    match field(fields, key)? {
        Scalar::Int(n) => Ok(*n),
        other => Err(format!("field {key:?} is not an integer: {other:?}")),
    }
}

fn u32_field(fields: &[(String, Scalar)], key: &str) -> Result<u32, String> {
    u32::try_from(int_field(fields, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

fn str_field<'a>(fields: &'a [(String, Scalar)], key: &str) -> Result<&'a str, String> {
    match field(fields, key)? {
        Scalar::Str(s) => Ok(s),
        other => Err(format!("field {key:?} is not a string: {other:?}")),
    }
}

fn bool_field(fields: &[(String, Scalar)], key: &str) -> Result<bool, String> {
    match field(fields, key)? {
        Scalar::Bool(b) => Ok(*b),
        other => Err(format!("field {key:?} is not a boolean: {other:?}")),
    }
}

fn span_field(fields: &[(String, Scalar)]) -> Result<SpanKind, String> {
    let name = str_field(fields, "span")?;
    SpanKind::from_name(name).ok_or_else(|| format!("unknown span kind {name:?}"))
}

/// Parses one exported JSONL line back into a [`Recorded`] event.
pub fn parse_event_line(line: &str) -> Result<Recorded, String> {
    let fields = parse_flat_object(line)?;
    let worker = u32_field(&fields, "worker")?;
    let seq = int_field(&fields, "seq")?;
    let ty = str_field(&fields, "type")?;
    let event = match ty {
        "rule_fired" => {
            let rule1 = int_field(&fields, "rule")?;
            if !(1..=RULE_COUNT as u64).contains(&rule1) {
                return Err(format!("rule index {rule1} out of range 1..=12"));
            }
            ChaseEvent::RuleFired {
                rule: (rule1 - 1) as u8,
                level: u32_field(&fields, "level")?,
            }
        }
        "egd_merge" => ChaseEvent::EgdMerge {
            merged: u32_field(&fields, "merged")?,
            depth: u32_field(&fields, "depth")?,
        },
        "null_invented" => ChaseEvent::NullInvented {
            null: int_field(&fields, "null")?,
            level: u32_field(&fields, "level")?,
        },
        "frontier" => ChaseEvent::Frontier {
            round: u32_field(&fields, "round")?,
            max_level: u32_field(&fields, "max_level")?,
            frontier: int_field(&fields, "frontier")?,
            atoms: int_field(&fields, "atoms")?,
        },
        "governor_stop" => ChaseEvent::GovernorStop {
            reason: u8::try_from(int_field(&fields, "reason")?)
                .map_err(|_| "reason exceeds u8".to_string())?,
        },
        "hom_expand" => ChaseEvent::HomExpand {
            depth: u32_field(&fields, "depth")?,
        },
        "hom_backtrack" => ChaseEvent::HomBacktrack {
            depth: u32_field(&fields, "depth")?,
        },
        "hom_prune" => ChaseEvent::HomPrune {
            depth: u32_field(&fields, "depth")?,
        },
        "cache_lookup" => ChaseEvent::CacheLookup {
            hit: bool_field(&fields, "hit")?,
        },
        "span_start" => ChaseEvent::SpanStart {
            span: span_field(&fields)?,
        },
        "span_end" => ChaseEvent::SpanEnd {
            span: span_field(&fields)?,
            nanos: int_field(&fields, "nanos")?,
        },
        "bound" => ChaseEvent::Bound {
            level_bound: int_field(&fields, "level_bound")?,
            theorem_bound: int_field(&fields, "theorem_bound")?,
        },
        "discovery_chunk" => ChaseEvent::DiscoveryChunk {
            conjuncts: int_field(&fields, "conjuncts")?,
            candidates: int_field(&fields, "candidates")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    };
    Ok(Recorded { worker, seq, event })
}

/// Parses a whole JSONL document (blank lines skipped). Errors carry the
/// 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Recorded>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_event_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;

    fn all_events() -> Vec<ChaseEvent> {
        vec![
            ChaseEvent::RuleFired { rule: 4, level: 2 },
            ChaseEvent::EgdMerge {
                merged: 3,
                depth: 2,
            },
            ChaseEvent::NullInvented { null: 41, level: 1 },
            ChaseEvent::Frontier {
                round: 1,
                max_level: 2,
                frontier: 5,
                atoms: 17,
            },
            ChaseEvent::GovernorStop { reason: 1 },
            ChaseEvent::HomExpand { depth: 4 },
            ChaseEvent::HomBacktrack { depth: 3 },
            ChaseEvent::HomPrune { depth: 2 },
            ChaseEvent::CacheLookup { hit: true },
            ChaseEvent::SpanStart {
                span: SpanKind::ChaseMinus,
            },
            ChaseEvent::SpanEnd {
                span: SpanKind::Decide,
                nanos: 987,
            },
            ChaseEvent::Bound {
                level_bound: 4,
                theorem_bound: 16,
            },
            ChaseEvent::DiscoveryChunk {
                conjuncts: 6,
                candidates: 11,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events: Vec<Recorded> = all_events()
            .into_iter()
            .enumerate()
            .map(|(i, event)| Recorded {
                worker: (i % 3) as u32,
                seq: i as u64,
                event,
            })
            .collect();
        let snapshot = TraceSnapshot {
            events: events.clone(),
            dropped: 0,
        };
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &snapshot).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn rule_indices_export_one_based() {
        let rec = Recorded {
            worker: 0,
            seq: 0,
            event: ChaseEvent::RuleFired { rule: 4, level: 0 },
        };
        let line = event_to_json(&rec);
        assert!(line.contains("\"rule\":5"), "rho5 exports as 5: {line}");
    }

    #[test]
    fn empty_trace_exports_as_empty_but_valid_jsonl_and_csv() {
        let snapshot = TraceSnapshot::empty();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &snapshot).unwrap();
        assert!(buf.is_empty(), "empty trace is an empty file");
        assert_eq!(parse_jsonl("").unwrap(), vec![]);

        let profile = ChaseProfile::from_snapshot(&snapshot);
        let rules = rule_profile_csv(&profile);
        assert_eq!(rules.lines().count(), 1 + RULE_COUNT, "header + 12 rows");
        assert!(rules.starts_with("rule,firings\n"));
        let growth = level_growth_csv(&profile);
        assert_eq!(growth, "level,created,invented\n", "header only");
    }

    #[test]
    fn parser_rejects_malformed_lines_with_line_numbers() {
        let bad =
            "{\"worker\":0,\"seq\":0,\"type\":\"rule_fired\",\"rule\":5,\"level\":1}\nnot json\n";
        let err = parse_jsonl(bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");

        for bad_line in [
            "{\"worker\":0}",                                // missing fields
            "{\"worker\":0,\"seq\":0,\"type\":\"mystery\"}", // unknown type
            "{\"worker\":0,\"seq\":0,\"type\":\"rule_fired\",\"rule\":13,\"level\":0}", // rule range
            "{\"worker\":-1,\"seq\":0,\"type\":\"cache_lookup\",\"hit\":true}", // negative int
            "{\"worker\":0,\"seq\":0,\"type\":\"cache_lookup\",\"hit\":true} extra", // garbage
        ] {
            assert!(parse_event_line(bad_line).is_err(), "{bad_line}");
        }
    }

    #[test]
    fn level_growth_csv_lists_levels_in_order() {
        let snapshot = TraceSnapshot {
            events: vec![
                Recorded {
                    worker: 0,
                    seq: 0,
                    event: ChaseEvent::RuleFired { rule: 0, level: 1 },
                },
                Recorded {
                    worker: 0,
                    seq: 1,
                    event: ChaseEvent::NullInvented { null: 1, level: 2 },
                },
            ],
            dropped: 0,
        };
        let profile = ChaseProfile::from_snapshot(&snapshot);
        assert_eq!(
            level_growth_csv(&profile),
            "level,created,invented\n0,0,0\n1,1,0\n2,0,1\n"
        );
    }
}
