//! Trace I/O.
//!
//! Two formats:
//!
//! * **JSON lines** ([`to_jsonl`] / [`from_jsonl`]) — lossless round-trip of
//!   any [`Job`] including moldable profiles; the workspace's native
//!   interchange format (results in EXPERIMENTS.md reference these files).
//! * **SWF import** ([`from_swf`]) — reads the Standard Workload Format used
//!   by the Parallel Workloads Archive, mapping each record to a rigid job
//!   (SWF has no moldable information). Only the fields relevant to the
//!   paper's criteria are used: job number, submit time, run time,
//!   allocated processors.

use std::collections::HashMap;
use std::fmt;

use lsps_des::{Dur, Time};

use crate::job::{Job, JobId, JobKind, UserId};

/// Error from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Record `id`, read at 1-based `line`, in `seen`. A repeat is a parse
/// error: a trace is an instance, and every consumer keys jobs by id.
fn note_id(seen: &mut HashMap<JobId, usize>, id: JobId, line: usize) -> Result<(), ParseError> {
    match seen.insert(id, line) {
        None => Ok(()),
        Some(first) => Err(ParseError {
            line,
            message: format!("duplicate job id {id} (first at line {first})"),
        }),
    }
}

/// Serialize jobs as JSON lines (one job per line).
pub fn to_jsonl(jobs: &[Job]) -> String {
    let mut out = String::new();
    for j in jobs {
        out.push_str(&serde_json::to_string(j).expect("Job is always serializable"));
        out.push('\n');
    }
    out
}

/// Why `job` is not a job [`Job::rigid`] or [`MoldableProfile::from_times`]
/// would build — zero processors, zero length, an empty profile or a zero
/// sequential time — or `None` if it is.
///
/// [`MoldableProfile::from_times`]: crate::speedup::MoldableProfile::from_times
fn malformed(job: &Job) -> Option<String> {
    match &job.kind {
        JobKind::Rigid { procs: 0, .. } => Some(format!("job {} needs 0 processors", job.id)),
        JobKind::Rigid { len, .. } if *len == Dur::ZERO => {
            Some(format!("job {} has zero length", job.id))
        }
        JobKind::Moldable { profile } | JobKind::Malleable { profile } => {
            if profile.max_procs() == 0 {
                Some(format!("job {} has an empty profile", job.id))
            } else if profile.seq_time() == Dur::ZERO {
                Some(format!("job {} has a zero sequential time", job.id))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Parse JSON lines produced by [`to_jsonl`]. Blank lines and `#` comments
/// are ignored; a repeated job id is an error, and so is a job the
/// constructors would refuse (see [`Job::rigid`] and
/// [`MoldableProfile::from_times`]).
///
/// [`MoldableProfile::from_times`]: crate::speedup::MoldableProfile::from_times
pub fn from_jsonl(text: &str) -> Result<Vec<Job>, ParseError> {
    let mut jobs = Vec::new();
    let mut seen = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let job: Job = serde_json::from_str(line).map_err(|e| ParseError {
            line: i + 1,
            message: e.to_string(),
        })?;
        if let Some(message) = malformed(&job) {
            return Err(ParseError {
                line: i + 1,
                message,
            });
        }
        note_id(&mut seen, job.id, i + 1)?;
        jobs.push(job);
    }
    Ok(jobs)
}

/// Parse a Standard Workload Format trace into rigid jobs.
///
/// SWF fields (whitespace-separated, `;` comment lines):
/// `0` job number, `1` submit time (s), `2` wait (ignored), `3` run time
/// (s), `4` allocated processors. Records with non-positive run time or
/// processor count are skipped (SWF uses -1 for "unknown"), matching the
/// archive's own cleaning conventions. A non-finite field, a job number or
/// processor count that is not a non-negative whole number, and a
/// repeated job number among the kept records are errors.
pub fn from_swf(text: &str) -> Result<Vec<Job>, ParseError> {
    let mut jobs = Vec::new();
    let mut seen = HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 5 {
            return Err(ParseError {
                line: i + 1,
                message: format!("expected >= 5 SWF fields, got {}", fields.len()),
            });
        }
        let error = |message: String| ParseError {
            line: i + 1,
            message,
        };
        let parse_f = |idx: usize| -> Result<f64, ParseError> {
            match fields[idx].parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(x) => Err(error(format!("field {idx}: {x} is not finite"))),
                Err(e) => Err(error(format!("field {idx}: {e}"))),
            }
        };
        let id = parse_f(0)?;
        let submit = parse_f(1)?;
        let run = parse_f(3)?;
        let procs = parse_f(4)?;
        if run <= 0.0 || procs <= 0.0 {
            continue; // unknown / cancelled record
        }
        for (idx, x) in [(0, id), (4, procs)] {
            if x.fract() != 0.0 || x < 0.0 {
                return Err(error(format!(
                    "field {idx}: {x} is not a non-negative whole number"
                )));
            }
        }
        let id = id as u64;
        note_id(&mut seen, JobId(id), i + 1)?;
        let user = fields
            .get(11)
            .and_then(|s| s.parse::<i64>().ok())
            .filter(|&u| u >= 0)
            .map(|u| UserId(u as u32))
            .unwrap_or_default();
        jobs.push(Job {
            id: JobId(id),
            kind: JobKind::Rigid {
                procs: procs as usize,
                len: Dur::from_secs_f64(run).max(Dur::from_ticks(1)),
            },
            release: Time::from_secs_f64(submit.max(0.0)),
            weight: 1.0,
            due: None,
            user,
        });
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::{MoldableProfile, SpeedupModel};

    #[test]
    fn jsonl_roundtrip_preserves_profiles() {
        let jobs = vec![
            Job::rigid(1, 4, Dur::from_ticks(100)),
            Job::moldable(
                2,
                MoldableProfile::from_model(Dur::from_ticks(500), &SpeedupModel::Linear, 8),
            )
            .with_weight(2.0)
            .released_at(Time::from_ticks(33)),
        ];
        let text = to_jsonl(&jobs);
        assert_eq!(text.lines().count(), 2);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(jobs, back);
    }

    #[test]
    fn jsonl_skips_comments_and_blanks() {
        let jobs = vec![Job::sequential(1, Dur::from_ticks(5))];
        let text = format!("# header\n\n{}", to_jsonl(&jobs));
        assert_eq!(from_jsonl(&text).unwrap(), jobs);
    }

    #[test]
    fn jsonl_reports_line_numbers() {
        let err = from_jsonl("# ok\n{not json}\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn jsonl_rejects_duplicate_ids() {
        let jobs = vec![
            Job::sequential(1, Dur::from_ticks(5)),
            Job::sequential(2, Dur::from_ticks(5)),
            Job::sequential(1, Dur::from_ticks(7)),
        ];
        let err = from_jsonl(&to_jsonl(&jobs)).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.message, "duplicate job id j1 (first at line 1)");
    }

    #[test]
    fn swf_basic_import() {
        let text = "\
; SWF header comment
1 0 10 3600 16 -1 -1 -1 -1 -1 -1 7
2 100 -1 -1 -1
3 250 5 60 1
";
        let jobs = from_swf(text).unwrap();
        assert_eq!(jobs.len(), 2, "record 2 has unknown run/procs, skipped");
        assert_eq!(jobs[0].id, JobId(1));
        assert_eq!(
            jobs[0].kind,
            JobKind::Rigid {
                procs: 16,
                len: Dur::from_secs(3600)
            }
        );
        assert_eq!(jobs[0].release, Time::ZERO);
        assert_eq!(jobs[0].user, UserId(7));
        assert_eq!(jobs[1].release, Time::from_secs(250));
        assert_eq!(jobs[1].min_procs(), 1);
    }

    #[test]
    fn swf_rejects_duplicate_ids() {
        let text = "\
; header
10 0 -1 60 1
10 5 -1 -1 -1
11 5 -1 60 2
10 9 -1 30 1
";
        let err = from_swf(text).unwrap_err();
        assert_eq!(err.line, 5, "the skipped record 10 is no instance job");
        assert_eq!(err.message, "duplicate job id j10 (first at line 2)");
    }

    #[test]
    fn swf_rejects_non_finite_and_fractional_fields() {
        for (line, message) in [
            ("2 0 -1 60 nan", "field 4: NaN is not finite"),
            ("2 0 -1 nan 1", "field 3: NaN is not finite"),
            ("2 inf -1 60 1", "field 1: inf is not finite"),
            (
                "2 0 -1 60 1.5",
                "field 4: 1.5 is not a non-negative whole number",
            ),
            (
                "2.5 0 -1 60 1",
                "field 0: 2.5 is not a non-negative whole number",
            ),
        ] {
            let err = from_swf(&format!("1 0 -1 60 1\n{line}\n")).unwrap_err();
            assert_eq!((err.line, err.message.as_str()), (2, message), "{line}");
        }
        // The skip rule for unknown values still holds.
        assert_eq!(from_swf("1 0 -1 60 -1\n2 0 -1 0 4\n").unwrap(), vec![]);
    }

    #[test]
    fn jsonl_rejects_jobs_the_constructors_refuse() {
        let job = |kind: &str| {
            format!(r#"{{"id":1,"kind":{kind},"release":0,"weight":1.0,"due":null,"user":0}}"#)
        };
        for (kind, message) in [
            (
                r#"{"Rigid":{"procs":0,"len":100}}"#,
                "job j1 needs 0 processors",
            ),
            (r#"{"Rigid":{"procs":2,"len":0}}"#, "job j1 has zero length"),
            (
                r#"{"Moldable":{"profile":{"times":[]}}}"#,
                "job j1 has an empty profile",
            ),
            (
                r#"{"Malleable":{"profile":{"times":[0,0]}}}"#,
                "job j1 has a zero sequential time",
            ),
        ] {
            let err = from_jsonl(&format!("# header\n{}\n", job(kind))).unwrap_err();
            assert_eq!((err.line, err.message.as_str()), (2, message), "{kind}");
        }
    }

    #[test]
    fn swf_rejects_short_lines() {
        let err = from_swf("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("5 SWF fields"));
    }
}
