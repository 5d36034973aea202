//! Spans the benchmark records around its own calls into the program,
//! next to the spans the runtime already records, and the self-time rule.
//!
//! The kinds lie outside the program's kind space, so the Chrome trace
//! shows them as `TASK`; the `task` argument holds the input index.

use bidiag_obs as obs;
use std::sync::OnceLock;

/// One request: a per-call `try_ge2val`, or a session request from submission
/// to result.
pub const SPAN_REQUEST: u32 = 40;
/// Time inside `SvdSession::submit`.
pub const SPAN_SUBMIT: u32 = 41;
/// One call of a layer probe (GEMM, op generation, graph build, spawn).
pub const SPAN_PROBE: u32 = 42;

/// Submission id shared by every span the benchmark records.
fn run_id() -> u64 {
    static ID: OnceLock<u64> = OnceLock::new();
    *ID.get_or_init(obs::next_submission_id)
}

/// Record a span of `kind` from `start_ns` to now on the calling thread,
/// when tracing is on.
pub fn record(kind: u32, task: usize, start_ns: u64) {
    if obs::enabled() {
        obs::record_span(obs::Span {
            submission: run_id(),
            task: task as u32,
            kind,
            worker: obs::WORKER_CALLER,
            start_ns,
            end_ns: obs::now_ns(),
        });
    }
}

/// Self time of `parent`: its duration minus the part of its interval that
/// the `children` cover (overlapping children count once).
pub fn self_ns(parent: &obs::Span, children: &[obs::Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.end_ns - parent.start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> obs::Span {
        obs::Span {
            submission: 1,
            task: 0,
            kind: 0,
            worker: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_and_clipped_children_count_once() {
        let parent = span(100, 200);
        let children = [
            span(90, 120),
            span(110, 130),
            span(150, 160),
            span(190, 300),
        ];
        // Covered: 100..130, 150..160, 190..200 = 50 ns.
        assert_eq!(self_ns(&parent, &children), 50);
        assert_eq!(self_ns(&parent, &[]), 100);
    }
}
