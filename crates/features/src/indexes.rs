//! Per-line views of the simulator's flat logs.
//!
//! [`crate::BaseEncoder`] replays each line's tests and customer-edge
//! ticket days from these indexes, one line at a time; the evaluation
//! analyses ask "when is *u*'s next ticket after *t*?"
//! ([`TicketIndex::first_within`], O(log n)).

use nevermind_dslsim::{LineId, LineTest, Ticket};

/// Per-line measurement index (tests sorted by day within each line).
pub struct MeasurementIndex<'a> {
    per_line: Vec<Vec<&'a LineTest>>,
}

impl<'a> MeasurementIndex<'a> {
    /// Builds the index. `n_lines` must cover every line id appearing in
    /// the log.
    pub fn build(measurements: &'a [LineTest], n_lines: usize) -> Self {
        let mut per_line: Vec<Vec<&LineTest>> = vec![Vec::new(); n_lines];
        for m in measurements {
            per_line[m.line.index()].push(m);
        }
        for tests in per_line.iter_mut() {
            tests.sort_by_key(|t| t.day);
        }
        Self { per_line }
    }

    /// All tests for a line, by day (a stable sort, so same-day tests keep
    /// their log order).
    pub fn all(&self, line: LineId) -> &[&'a LineTest] {
        &self.per_line[line.index()]
    }
}

/// Per-line customer-edge ticket index (days sorted within each line).
pub struct TicketIndex {
    per_line: Vec<Vec<u32>>,
}

impl TicketIndex {
    /// Builds the index from **customer-edge tickets only** — the agent
    /// category label is the filter, exactly as the paper uses it.
    pub fn build(tickets: &[Ticket], n_lines: usize) -> Self {
        let mut per_line: Vec<Vec<u32>> = vec![Vec::new(); n_lines];
        for t in tickets {
            if t.is_customer_edge() {
                per_line[t.line.index()].push(t.day);
            }
        }
        for days in per_line.iter_mut() {
            days.sort_unstable();
        }
        Self { per_line }
    }

    /// Day of the first ticket in `(day, day + horizon]` — the paper's
    /// `NT(u, t) < T` label window. A horizon past the `u32` day range
    /// covers the rest of it.
    pub fn first_within(&self, line: LineId, day: u32, horizon: u32) -> Option<u32> {
        let days = &self.per_line[line.index()];
        let cut = days.partition_point(|&d| d <= day);
        days.get(cut).copied().filter(|&d| d <= day.saturating_add(horizon))
    }

    /// All ticket days for a line.
    pub fn days(&self, line: LineId) -> &[u32] {
        &self.per_line[line.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_dslsim::measurement::N_METRICS;
    use nevermind_dslsim::TicketCategory;

    fn test_at(line: u32, day: u32) -> LineTest {
        LineTest { line: LineId(line), day, values: [day as f32; N_METRICS] }
    }

    fn ticket(line: u32, day: u32, category: TicketCategory) -> Ticket {
        Ticket { id: day, line: LineId(line), day, category }
    }

    #[test]
    fn measurement_lookup() {
        let tests = vec![test_at(0, 20), test_at(0, 6), test_at(0, 13), test_at(1, 6)];
        let idx = MeasurementIndex::build(&tests, 2);
        let days: Vec<u32> = idx.all(LineId(0)).iter().map(|t| t.day).collect();
        assert_eq!(days, vec![6, 13, 20]);
        assert_eq!(idx.all(LineId(1)).len(), 1);
    }

    #[test]
    fn ticket_index_filters_to_customer_edge() {
        let tickets = vec![
            ticket(0, 5, TicketCategory::CustomerEdge),
            ticket(0, 9, TicketCategory::NonTechnical),
            ticket(0, 12, TicketCategory::Outage),
            ticket(0, 30, TicketCategory::CustomerEdge),
        ];
        let idx = TicketIndex::build(&tickets, 1);
        assert_eq!(idx.days(LineId(0)), &[5, 30]);
    }

    #[test]
    fn label_window_is_half_open_after_day() {
        let tickets = vec![ticket(0, 10, TicketCategory::CustomerEdge)];
        let idx = TicketIndex::build(&tickets, 1);
        // A ticket on the prediction day itself does not count.
        assert_eq!(idx.first_within(LineId(0), 10, 28), None);
        assert_eq!(idx.first_within(LineId(0), 9, 28), Some(10));
        assert_eq!(idx.first_within(LineId(0), 9, 1), Some(10));
        assert_eq!(idx.first_within(LineId(0), 5, 4), None);
        assert_eq!(idx.first_within(LineId(0), 9, u32::MAX), Some(10));
    }
}
