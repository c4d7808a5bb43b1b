//! The committed `results/*.txt` as goldens.
//!
//! A report is one text: a deterministic section (plans, predicted
//! costs, F values, plan counts, measured fetch/RSI/cost-unit counts) and
//! then, after the [`TIMING_MARKER`] line, whatever read a clock.
//! `sysr-experiments --check` compares the deterministic section with the
//! committed file byte for byte and ignores the timing section.

use std::path::{Path, PathBuf};

/// The line that opens a report's unchecked timing section.
pub const TIMING_MARKER: &str = "-- timing (not checked) --";

/// The repository's `results/` directory, independent of the working
/// directory.
pub fn results_dir() -> PathBuf {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    bench.ancestors().nth(2).unwrap_or(bench).join("results")
}

/// Join a report's two sections; the marker appears only when there is
/// timing to follow it.
pub fn render(deterministic: &str, timing: &str) -> String {
    if timing.is_empty() {
        deterministic.to_string()
    } else {
        format!("{deterministic}{TIMING_MARKER}\n{timing}")
    }
}

/// Everything before the marker line (the whole text if there is none).
pub fn checked_section(text: &str) -> &str {
    let mut end = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_end_matches('\n') == TIMING_MARKER {
            break;
        }
        end += line.len();
    }
    text.get(..end).unwrap_or(text)
}

/// Compare a report's output with the committed file at `path`. The
/// error names the file and the first line whose deterministic content
/// differs.
pub fn check(path: &Path, report: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read the committed report: {e}", path.display()))?;
    let (want, got) = (checked_section(&committed), checked_section(report));
    if want == got {
        return Ok(());
    }
    let mut line = want.lines().zip(got.lines()).take_while(|(w, g)| w == g).count();
    let mut note = "";
    if line == want.lines().count() && line == got.lines().count() {
        line = line.saturating_sub(1);
        note = " (only the final newline differs)";
    }
    let at = |text: &str| text.lines().nth(line).unwrap_or("<end of section>").to_string();
    Err(format!(
        "{}:{}: the report differs from the committed file{note}\n  committed: {}\n  report:    {}",
        path.display(),
        line + 1,
        at(want),
        at(got)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = "TABLE\nrow 1  2.02\nrow 2  14.80\n";

    fn committed_file(name: &str, text: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("sysr-golden-{}-{name}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn equal_deterministic_sections_pass() {
        let path = committed_file("equal", &render(COMMITTED, "12 µs\n"));
        assert_eq!(check(&path, &render(COMMITTED, "12 µs\n")), Ok(()));
        assert_eq!(check(&path, COMMITTED), Ok(()));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn one_changed_byte_fails_and_names_file_and_line() {
        let path = committed_file("byte", COMMITTED);
        let err = check(&path, "TABLE\nrow 1  2.02\nrow 2  14.81\n").unwrap_err();
        assert!(err.starts_with(&format!("{}:3:", path.display())), "{err}");
        assert!(err.contains("committed: row 2  14.80") && err.contains("report:    row 2  14.81"));
        let err = check(&path, "TABLE\nrow 1  2.02\nrow 2  14.80").unwrap_err();
        assert!(err.contains(":3: ") && err.contains("final newline"), "{err}");
        let err = check(&path, &format!("{COMMITTED}extra\n")).unwrap_err();
        assert!(err.contains(":4:") && err.contains("report:    extra"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_different_timing_section_passes() {
        let path = committed_file("timing", &render(COMMITTED, "search: 101 µs\n"));
        assert_eq!(check(&path, &render(COMMITTED, "search: 36 µs\nmore\n")), Ok(()));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_missing_results_file_fails() {
        let path = std::env::temp_dir().join("sysr-golden-no-such-report.txt");
        let err = check(&path, COMMITTED).unwrap_err();
        assert!(err.contains("sysr-golden-no-such-report.txt") && err.contains("cannot read"));
    }
}
