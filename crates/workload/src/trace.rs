//! Plain-text workload traces ("real workloads" input path).
//!
//! The format is line-oriented, inspired by the Standard Workload Format
//! used by grid archives:
//!
//! ```text
//! # dreamsim-trace v1
//! # interarrival required_time pref data_bytes
//! 12 5000 c7 4096        # prefers configuration 7
//! 3  800  p1500 0        # prefers a phantom config of area 1500
//! ```
//!
//! * blank lines and `#` comments are ignored (inline comments allowed);
//! * `pref` is `c<id>` for an in-list configuration or `p<area>` for a
//!   phantom preference;
//! * `interarrival` and `required_time` are at most [`MAX_TICKS`], the
//!   ceiling every tick parameter obeys, so the engine's arrival and
//!   completion sums cannot wrap, and a phantom area is at most
//!   [`MAX_AREA`], the ceiling of every node and configuration area
//!   (DESIGN.md §14.4);
//! * fields are whitespace-separated.
//!
//! A malformed line is a [`ParseError`] naming the line and the field.
//!
//! [`TraceSource`] replays a trace; [`RecordingSource`] tees another
//! source into a trace so synthetic runs can be captured and re-run
//! identically (record → replay is property-tested).

use dreamsim_engine::params::MAX_TICKS;
use dreamsim_engine::sim::{SourceYield, TaskSource, TaskSpec};
use dreamsim_model::ids::MAX_AREA;
use dreamsim_model::{ConfigId, PreferredConfig, TaskId, Ticks};
use dreamsim_rng::Rng;
use std::fmt::Write as _;

/// Trace parse error, with 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serialize specs into the trace format.
#[must_use]
pub fn write_trace(specs: &[TaskSpec]) -> String {
    let mut out =
        String::from("# dreamsim-trace v1\n# interarrival required_time pref data_bytes\n");
    for s in specs {
        let pref = match s.preferred {
            PreferredConfig::Known(c) => format!("c{}", c.0),
            PreferredConfig::Phantom { area } => format!("p{area}"),
        };
        let _ = writeln!(
            out,
            "{} {} {} {}",
            s.interarrival, s.required_time, pref, s.data_bytes
        );
    }
    out
}

/// Parse a trace into task specs.
pub fn parse_trace(text: &str) -> Result<Vec<TaskSpec>, ParseError> {
    let mut specs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(ParseError {
                line,
                message: format!("expected 4 fields, found {}", fields.len()),
            });
        }
        let num = |s: &str, what: &str| -> Result<u64, ParseError> {
            s.parse().map_err(|_| ParseError {
                line,
                message: format!("invalid {what}: {s:?}"),
            })
        };
        let ticks = |s: &str, what: &str| -> Result<Ticks, ParseError> {
            let value = num(s, what)?;
            if value > MAX_TICKS {
                return Err(ParseError {
                    line,
                    message: format!("{what} {value} exceeds the ceiling of {MAX_TICKS} ticks"),
                });
            }
            Ok(value)
        };
        let interarrival = ticks(fields[0], "interarrival")?;
        let required_time = ticks(fields[1], "required_time")?;
        let pref = fields[2];
        // Split off the one-character kind tag without assuming the
        // field is ASCII (a byte-based `split_at(1)` panics on
        // multibyte garbage instead of reporting a parse error).
        let mut pref_chars = pref.chars();
        let kind = pref_chars.next().map(String::from).unwrap_or_default();
        let rest = pref_chars.as_str();
        let (preferred, needed_area) = match (kind.as_str(), rest) {
            ("c", id) => {
                let id = num(id, "config id")?;
                let id = u32::try_from(id).map_err(|_| ParseError {
                    line,
                    message: format!("config id {id} too large"),
                })?;
                (PreferredConfig::Known(ConfigId(id)), 0)
            }
            ("p", area) => {
                let area = num(area, "phantom area")?;
                if area > MAX_AREA {
                    return Err(ParseError {
                        line,
                        message: format!(
                            "phantom area {area} exceeds the ceiling of {MAX_AREA} area units"
                        ),
                    });
                }
                (PreferredConfig::Phantom { area }, area)
            }
            _ => {
                return Err(ParseError {
                    line,
                    message: format!("preference must be c<id> or p<area>, got {pref:?}"),
                })
            }
        };
        let data_bytes = num(fields[3], "data_bytes")?;
        specs.push(TaskSpec {
            interarrival,
            required_time,
            preferred,
            needed_area,
            data_bytes,
        });
    }
    Ok(specs)
}

/// Replays a parsed trace in order; exhausted when the trace ends.
#[derive(Clone, Debug)]
pub struct TraceSource {
    specs: Vec<TaskSpec>,
    next: usize,
}

impl TraceSource {
    /// Parse trace text into a replayable source.
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        Ok(Self {
            specs: parse_trace(text)?,
            next: 0,
        })
    }

    /// Wrap already-parsed specs.
    #[must_use]
    pub fn from_specs(specs: Vec<TaskSpec>) -> Self {
        Self { specs, next: 0 }
    }

    /// Number of tasks in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl TaskSource for TraceSource {
    fn next_task(&mut self, _now: Ticks, _rng: &mut Rng) -> SourceYield {
        match self.specs.get(self.next) {
            Some(&s) => {
                self.next += 1;
                SourceYield::Task(s)
            }
            None => SourceYield::Exhausted,
        }
    }

    fn source_kind(&self) -> &'static str {
        "trace"
    }

    fn source_cursor(&self) -> u64 {
        self.next as u64
    }

    fn restore_cursor(&mut self, cursor: u64) -> bool {
        // Clamp so a cursor from a longer trace cannot index out of
        // bounds; `next == len` simply yields `Exhausted`.
        self.next = (cursor as usize).min(self.specs.len());
        true
    }
}

/// Tees an inner source, recording everything it yields so the run can
/// be written out as a trace afterwards.
#[derive(Clone, Debug)]
pub struct RecordingSource<S> {
    inner: S,
    recorded: Vec<TaskSpec>,
}

impl<S> RecordingSource<S> {
    /// Wrap `inner`.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            recorded: Vec::new(),
        }
    }

    /// Everything yielded so far.
    #[must_use]
    pub fn recorded(&self) -> &[TaskSpec] {
        &self.recorded
    }

    /// Serialize the recording as trace text.
    #[must_use]
    pub fn to_trace(&self) -> String {
        write_trace(&self.recorded)
    }
}

impl<S: TaskSource> TaskSource for RecordingSource<S> {
    fn next_task(&mut self, now: Ticks, rng: &mut Rng) -> SourceYield {
        let y = self.inner.next_task(now, rng);
        if let SourceYield::Task(spec) = y {
            self.recorded.push(spec);
        }
        y
    }

    fn on_task_completed(&mut self, task: TaskId, now: Ticks) {
        self.inner.on_task_completed(task, now);
    }

    fn source_kind(&self) -> &'static str {
        // Forward the inner identity: a recording wrapper changes what
        // is observed, not what is produced, so a checkpoint taken
        // through it can resume against the bare inner source.
        self.inner.source_kind()
    }

    fn source_cursor(&self) -> u64 {
        self.inner.source_cursor()
    }

    fn restore_cursor(&mut self, cursor: u64) -> bool {
        self.inner.restore_cursor(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ia: u64, rt: u64, pref: PreferredConfig, area: u64) -> TaskSpec {
        TaskSpec {
            interarrival: ia,
            required_time: rt,
            preferred: pref,
            needed_area: area,
            data_bytes: 64,
        }
    }

    #[test]
    fn round_trip_write_parse() {
        let specs = vec![
            spec(12, 5000, PreferredConfig::Known(ConfigId(7)), 0),
            spec(3, 800, PreferredConfig::Phantom { area: 1500 }, 1500),
            spec(1, 1, PreferredConfig::Known(ConfigId(0)), 0),
        ];
        let text = write_trace(&specs);
        let back = parse_trace(&text).unwrap();
        assert_eq!(specs, back);
    }

    #[test]
    fn comments_blank_lines_and_inline_comments() {
        let text = "\n# header\n  \n5 100 c2 0  # inline\n\n7 200 p300 8\n";
        let specs = parse_trace(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].interarrival, 5);
        assert_eq!(specs[1].preferred, PreferredConfig::Phantom { area: 300 });
        assert_eq!(specs[1].needed_area, 300);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_trace("5 100 c2 0\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("4 fields"), "{}", err.message);

        let err = parse_trace("5 100 x2 0\n").unwrap_err();
        assert!(err.message.contains("c<id> or p<area>"), "{}", err.message);

        // Multibyte garbage must be a parse error, not a panic.
        let err = parse_trace("5 100 ü2 0\n").unwrap_err();
        assert!(err.message.contains("c<id> or p<area>"), "{}", err.message);
        let err = parse_trace("5 100 Ａ1 0\n").unwrap_err();
        assert!(err.message.contains("c<id> or p<area>"), "{}", err.message);

        let err = parse_trace("5 abc c2 0\n").unwrap_err();
        assert!(err.message.contains("required_time"), "{}", err.message);

        let err = parse_trace("5 100 c99999999999 0\n").unwrap_err();
        assert!(err.message.contains("too large"), "{}", err.message);
    }

    /// Tick fields above the ceiling would wrap the engine's arrival or
    /// completion sum; the ceiling itself is accepted.
    #[test]
    fn tick_fields_above_the_ceiling_are_parse_errors() {
        let max = u64::MAX;
        for (text, field) in [
            (format!("{max} 5000 c7 0\n"), "interarrival"),
            (format!("1 1 c0 0\n12 {max} c7 0\n"), "required_time"),
            (format!("{} 1 c0 0\n", MAX_TICKS + 1), "interarrival"),
        ] {
            let err = parse_trace(&text).unwrap_err();
            assert_eq!(err.line, text.lines().count(), "{text}");
            assert!(
                err.message.starts_with(field) && err.message.contains("exceeds the ceiling"),
                "{}",
                err.message
            );
        }
        let at = parse_trace(&format!("{MAX_TICKS} {MAX_TICKS} c0 0\n")).unwrap();
        assert_eq!(
            (at[0].interarrival, at[0].required_time),
            (MAX_TICKS, MAX_TICKS)
        );
    }

    /// A phantom area above the area ceiling is a parse error naming the
    /// line; the ceiling itself is accepted.
    #[test]
    fn phantom_areas_above_the_ceiling_are_parse_errors() {
        for area in [MAX_AREA + 1, u64::MAX] {
            let err = parse_trace(&format!("1 1 c0 0\n2 5 p{area} 0\n")).unwrap_err();
            assert_eq!(err.line, 2);
            assert_eq!(
                err.message,
                format!("phantom area {area} exceeds the ceiling of {MAX_AREA} area units")
            );
        }
        let at = parse_trace(&format!("1 1 p{MAX_AREA} 0\n")).unwrap();
        assert_eq!(at[0].needed_area, MAX_AREA);
    }

    #[test]
    fn trace_source_replays_in_order_then_exhausts() {
        let specs = vec![
            spec(1, 10, PreferredConfig::Known(ConfigId(0)), 0),
            spec(2, 20, PreferredConfig::Known(ConfigId(1)), 0),
        ];
        let mut src = TraceSource::from_specs(specs.clone());
        assert_eq!(src.len(), 2);
        assert!(!src.is_empty());
        let mut rng = Rng::seed_from(0);
        assert_eq!(src.next_task(0, &mut rng), SourceYield::Task(specs[0]));
        assert_eq!(src.next_task(0, &mut rng), SourceYield::Task(specs[1]));
        assert_eq!(src.next_task(0, &mut rng), SourceYield::Exhausted);
        assert_eq!(src.next_task(0, &mut rng), SourceYield::Exhausted);
    }

    #[test]
    fn trace_cursor_save_and_restore_resumes_mid_trace() {
        let specs = vec![
            spec(1, 10, PreferredConfig::Known(ConfigId(0)), 0),
            spec(2, 20, PreferredConfig::Known(ConfigId(1)), 0),
            spec(3, 30, PreferredConfig::Known(ConfigId(2)), 0),
        ];
        let mut src = TraceSource::from_specs(specs.clone());
        let mut rng = Rng::seed_from(0);
        let _ = src.next_task(0, &mut rng);
        let _ = src.next_task(0, &mut rng);
        assert_eq!(src.source_kind(), "trace");
        let cursor = src.source_cursor();
        assert_eq!(cursor, 2);
        // A fresh source restored to the cursor continues identically.
        let mut fresh = TraceSource::from_specs(specs.clone());
        assert!(fresh.restore_cursor(cursor));
        assert_eq!(fresh.next_task(0, &mut rng), SourceYield::Task(specs[2]));
        assert_eq!(fresh.next_task(0, &mut rng), SourceYield::Exhausted);
        // Out-of-range cursors clamp to exhaustion instead of panicking.
        let mut fresh = TraceSource::from_specs(specs);
        assert!(fresh.restore_cursor(99));
        assert_eq!(fresh.next_task(0, &mut rng), SourceYield::Exhausted);
    }

    #[test]
    fn recording_source_captures_yields() {
        let specs = vec![spec(1, 10, PreferredConfig::Known(ConfigId(0)), 0)];
        let mut rec = RecordingSource::new(TraceSource::from_specs(specs.clone()));
        let mut rng = Rng::seed_from(0);
        let _ = rec.next_task(0, &mut rng);
        let _ = rec.next_task(0, &mut rng); // exhausted; not recorded
        assert_eq!(rec.recorded(), &specs[..]);
        let replay = parse_trace(&rec.to_trace()).unwrap();
        assert_eq!(replay, specs);
    }
}
