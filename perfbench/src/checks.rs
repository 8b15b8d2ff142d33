//! Output checks. Each operation (a deployment cell or an engine run)
//! renders its outputs as one text row; a check compares rows exactly, so
//! one changed digit anywhere in a row fails that operation.

/// The committed Figure 11/12 table, the golden for `fig11_social` at seed 0.
pub const FIG11_12_TSV: &str = include_str!("../../results/fig11_12/fig11_12.tsv");

/// Counters recorded at seed 0 for `engine` and `planes`: one
/// `workload<TAB>row` line per operation, in operation order.
pub const EXPECTED_SEED0: &str = include_str!("../expected_seed0.tsv");

/// The rows of `table` whose first column is `key`, without that column.
pub fn rows_for(table: &str, key: &str) -> Vec<String> {
    table
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .filter(|(k, _)| *k == key)
        .map(|(_, rest)| rest.to_string())
        .collect()
}

/// Compares `got` with `want` row by row and returns the index of each
/// failed operation with a message. A missing or extra row fails too.
pub fn compare(what: &str, want: &[String], got: &[String]) -> Vec<(usize, String)> {
    let mut errors = Vec::new();
    for i in 0..want.len().max(got.len()) {
        match (want.get(i), got.get(i)) {
            (Some(w), Some(g)) if w == g => {}
            (w, g) => errors.push((
                i,
                format!(
                    "{what} row {i}: expected {:?}, got {:?}",
                    w.map_or("<none>", String::as_str),
                    g.map_or("<none>", String::as_str)
                ),
            )),
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every copy of `rows` with one digit changed: the last digit of one
    /// numeric column of one row, the way a drifted value would read.
    /// Yields the changed row's index with the copy.
    fn one_digit_changes(rows: &[String]) -> Vec<(usize, Vec<String>)> {
        let mut out = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let mut start = 0;
            for field in row.split('\t') {
                if let Some(pos) = field.rfind(|c: char| c.is_ascii_digit()) {
                    let at = start + pos;
                    let d = row.as_bytes()[at] - b'0';
                    let mut changed = rows.to_vec();
                    changed[i].replace_range(at..=at, &((d + 1) % 10).to_string());
                    out.push((i, changed));
                }
                start += field.len() + 1;
            }
        }
        out
    }

    fn assert_each_change_is_one_error(what: &str, want: &[String]) {
        assert!(compare(what, want, want).is_empty());
        let changes = one_digit_changes(want);
        assert!(
            changes.len() >= want.len(),
            "{what}: every row has a number"
        );
        for (i, got) in changes {
            let errors = compare(what, want, &got);
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert_eq!(errors[0].0, i);
        }
    }

    #[test]
    fn golden_has_the_social_grid() {
        let rows = rows_for(FIG11_12_TSV, "social");
        assert_eq!(rows.len(), 25);
        assert!(rows[0].starts_with("constant\tursa\t"));
    }

    #[test]
    fn one_changed_digit_in_a_golden_row_is_an_error() {
        assert_each_change_is_one_error("fig11", &rows_for(FIG11_12_TSV, "social"));
    }

    #[test]
    fn one_changed_digit_in_a_counter_is_an_error() {
        for workload in ["engine", "planes"] {
            let want = rows_for(EXPECTED_SEED0, workload);
            assert!(!want.is_empty(), "{workload} has recorded rows");
            assert_each_change_is_one_error(workload, &want);
        }
    }

    #[test]
    fn missing_and_extra_rows_are_errors() {
        let want = rows_for(EXPECTED_SEED0, "engine");
        let n = want.len();
        assert_eq!(compare("engine", &want, &want[..n - 1]).len(), 1);
        assert_eq!(compare("engine", &want[..n - 1], &want).len(), 1);
        assert_eq!(compare("engine", &want, &[]).len(), n);
    }
}
