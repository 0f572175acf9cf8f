//! Repo automation, invoked as `cargo xtask <command>`.
//!
//! `lint` is the CI hygiene pass:
//!
//! 1. **Forbidden-call scan.** Non-test library code must not call
//!    `unwrap()`, `expect()`, or `panic!` — operators surface failures as
//!    `ArynError`, not aborts. Test modules, integration tests, benches, and
//!    examples are exempt, and pre-existing sites are grandfathered by the
//!    per-file budgets in `crates/xtask/lint-allow.txt` (shrink a budget when
//!    you remove a site; never grow one).
//! 2. **Raw model-call scan.** Outside `aryn-llm` itself, library code must
//!    not call `model.generate(` directly — every completion goes through
//!    the metered, retrying, cache-aware [`aryn_llm::LlmClient`], or the
//!    usage meters, retry policy, and call cache silently under-count.
//! 3. **Micro-batch bypass scan.** `sycamore::transforms` may keep exactly
//!    its grandfathered per-document `client.generate*` sites (the unbatched
//!    singleton paths). New semantic operators must route through
//!    `aryn_llm::run_batched` so cross-document micro-batching (DESIGN.md
//!    §5e) and per-item cache memoization apply to them; a new direct
//!    per-doc generate loop silently opts the op out of both.
//! 4. **Sleep/raw-retry scan.** Library code must not call
//!    `thread::sleep` — latency is simulated on the reliability layer's
//!    virtual clock (DESIGN.md §5f), and a real sleep would stall tests
//!    without advancing any budget. Likewise, new `for attempt`/`while
//!    attempt` retry loops are frozen at the grandfathered sites: retries
//!    belong in `aryn_llm::reliability`/`LlmClient`, where they are metered,
//!    backoff-jittered, breaker-guarded, and charged to the deadline budget.
//! 5. **Diagnostic-code doc check.** Every analyzer code
//!    ([`luna::analyze::codes::ALL`]) and pipeline lint code
//!    ([`sycamore::lint::codes::ALL`]) must be documented in `DESIGN.md`.
//!
//! `lint --plans` is the plan-feasibility pass: it builds the bench18
//! fixture at smoke corpus sizes, plans every question with the static cost
//! analyzer enabled (DESIGN.md §5h), and fails on any Error-severity
//! diagnostic (L22/L23 hard infeasibility, or any semantic error) that
//! survives the repair re-prompt.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => manifest.to_path_buf(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let run = if args.iter().any(|a| a == "--plans") {
                plan_lint()
            } else {
                lint(&repo_root())
            };
            match run {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("usage: cargo xtask lint [--plans]");
            ExitCode::FAILURE
        }
    }
}

fn lint(root: &Path) -> Result<(), String> {
    let mut failures = Vec::new();
    forbidden_call_scan(root, &mut failures)?;
    model_call_scan(root, &mut failures)?;
    batch_bypass_scan(root, &mut failures)?;
    sleep_retry_scan(root, &mut failures)?;
    raw_fs_scan(root, &mut failures)?;
    doc_code_check(root, &mut failures)?;
    if failures.is_empty() {
        println!("xtask lint: ok");
        Ok(())
    } else {
        Err(format!(
            "xtask lint: {} failure(s)\n{}",
            failures.len(),
            failures.join("\n")
        ))
    }
}

// --- Forbidden-call scan ----------------------------------------------------

const FORBIDDEN: &[&str] = &[".unwrap()", ".expect(", "panic!("];

/// Parses `lint-allow.txt`: `path count` lines, `#` comments.
fn load_allowlist(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let path = root.join("crates/xtask/lint-allow.txt");
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next().and_then(|n| n.parse().ok())) {
            (Some(p), Some(n)) => {
                out.insert(p.to_string(), n);
            }
            _ => return Err(format!("malformed allowlist line: {line:?}")),
        }
    }
    Ok(out)
}

fn forbidden_call_scan(root: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    let allow = load_allowlist(root)?;
    let mut counts: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries.flatten() {
        let dir = entry.path();
        // xtask itself holds the forbidden tokens as string literals.
        if dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        // Library code only: integration tests, benches, and examples may
        // assert freely.
        scan_dir(&dir.join("src"), root, &mut counts)?;
    }
    for (file, sites) in &counts {
        let budget = allow.get(file).copied().unwrap_or(0);
        if sites.len() > budget {
            for (lineno, line) in sites {
                failures.push(format!("{file}:{lineno}: forbidden call in library code: {line}"));
            }
            failures.push(format!(
                "{file}: {} forbidden call(s), budget {budget} — return an ArynError instead \
                 (or, for a pre-existing site, raise its budget in crates/xtask/lint-allow.txt)",
                sites.len()
            ));
        }
    }
    // Stale budgets hide future regressions; flag them loudly but pass.
    for (file, budget) in &allow {
        let have = counts.get(file).map_or(0, Vec::len);
        if have < *budget {
            println!(
                "xtask lint: note: {file} budget {budget} but only {have} site(s) — tighten lint-allow.txt"
            );
        }
    }
    Ok(())
}

fn scan_dir(
    dir: &Path,
    root: &Path,
    counts: &mut BTreeMap<String, Vec<(usize, String)>>,
) -> Result<(), String> {
    scan_dir_for(dir, root, FORBIDDEN, counts)
}

fn scan_dir_for(
    dir: &Path,
    root: &Path,
    patterns: &[&str],
    counts: &mut BTreeMap<String, Vec<(usize, String)>>,
) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(()); // crates without src/ (none today) are fine
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            scan_dir_for(&path, root, patterns, counts)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            for site in scan_source_for(&text, patterns) {
                counts.entry(rel.clone()).or_default().push(site);
            }
        }
    }
    Ok(())
}

// --- Raw model-call scan ----------------------------------------------------

/// Outside aryn-llm, `model.generate(` is always a bug: it bypasses the
/// usage meter, the retry policy, and the call cache. There is no budget and
/// no allowlist — route the call through `LlmClient`.
fn model_call_scan(root: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    let mut counts: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries.flatten() {
        let dir = entry.path();
        // aryn-llm is the one place allowed to talk to models; xtask holds
        // the pattern as a string literal.
        if dir
            .file_name()
            .is_some_and(|n| n == "xtask" || n == "aryn-llm")
        {
            continue;
        }
        scan_dir_for(&dir.join("src"), root, &["model.generate("], &mut counts)?;
    }
    for (file, sites) in &counts {
        for (lineno, line) in sites {
            failures.push(format!(
                "{file}:{lineno}: direct model call outside aryn-llm: {line} — \
                 go through the metered/cached aryn_llm::LlmClient instead"
            ));
        }
    }
    Ok(())
}

// --- Micro-batch bypass scan ------------------------------------------------

/// The grandfathered `client.generate*` sites in `sycamore::transforms`: the
/// unbatched singleton paths of the existing semantic ops. Shrink when one
/// is removed; never grow it — new ops go through `aryn_llm::run_batched`.
const TRANSFORMS_GENERATE_BUDGET: usize = 5;

/// New per-document `client.generate*` loops in `sycamore::transforms` opt
/// the op out of cross-document micro-batching and per-item cache
/// memoization (DESIGN.md §5e), so the site count is frozen at the budget.
fn batch_bypass_scan(root: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    let rel = "crates/sycamore/src/transforms.rs";
    let path = root.join(rel);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let sites = scan_source_for(&text, &[".generate_json(", ".generate("]);
    if sites.len() > TRANSFORMS_GENERATE_BUDGET {
        for (lineno, line) in &sites {
            failures.push(format!("{rel}:{lineno}: per-doc model call in transforms: {line}"));
        }
        failures.push(format!(
            "{rel}: {} direct generate site(s), budget {TRANSFORMS_GENERATE_BUDGET} — \
             route new semantic ops through aryn_llm::run_batched (DESIGN.md §5e) \
             instead of a per-document generate loop",
            sites.len()
        ));
    } else if sites.len() < TRANSFORMS_GENERATE_BUDGET {
        println!(
            "xtask lint: note: {rel} generate budget {TRANSFORMS_GENERATE_BUDGET} but only {} \
             site(s) — tighten the constant in crates/xtask/src/main.rs",
            sites.len()
        );
    }
    Ok(())
}

/// Returns (1-based line, trimmed text) for each line containing one of
/// `patterns` outside comments and `#[cfg(test)]` blocks.
fn scan_source_for(text: &str, patterns: &[&str]) -> Vec<(usize, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim();
        if trimmed.contains("#[cfg(test)]") {
            // Skip the attached item (a mod or fn block): advance to the end
            // of the next brace-balanced block.
            let mut depth = 0i32;
            let mut started = false;
            while i < lines.len() {
                depth += lines[i].matches('{').count() as i32;
                depth -= lines[i].matches('}').count() as i32;
                if lines[i].contains('{') {
                    started = true;
                }
                if started && depth <= 0 {
                    break;
                }
                i += 1;
            }
            i += 1;
            continue;
        }
        if !trimmed.starts_with("//") && patterns.iter().any(|f| trimmed.contains(f)) {
            out.push((i + 1, trimmed.to_string()));
        }
        i += 1;
    }
    out
}

// --- Sleep/raw-retry scan ---------------------------------------------------

/// The grandfathered raw retry loops, each driving its ladder through the
/// reliability layer's accounting: the transient/re-ask ladders in
/// `LlmClient`, the executor's worker-crash retry (§5.3), and Luna's
/// re-plan loop. Shrink a budget when a loop is removed; never grow one —
/// new retry logic goes through `aryn_llm::reliability`.
const RETRY_LOOP_BUDGETS: &[(&str, usize)] = &[
    ("crates/aryn-llm/src/client.rs", 1),
    ("crates/sycamore/src/exec.rs", 1),
    ("crates/luna/src/luna.rs", 1),
];

/// `thread::sleep` is banned outright in library code: latency must be
/// charged to the virtual clock (`ReliabilityState::charge`), never waited
/// out. Retry loops are frozen at the grandfathered sites above.
fn sleep_retry_scan(root: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    let mut sleeps: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    let mut loops: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries.flatten() {
        let dir = entry.path();
        // xtask holds the patterns as string literals.
        if dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        scan_dir_for(&dir.join("src"), root, &["thread::sleep("], &mut sleeps)?;
        scan_dir_for(
            &dir.join("src"),
            root,
            &["for attempt", "while attempt"],
            &mut loops,
        )?;
    }
    for (file, sites) in &sleeps {
        for (lineno, line) in sites {
            failures.push(format!(
                "{file}:{lineno}: thread::sleep in library code: {line} — charge simulated \
                 latency to the reliability layer's virtual clock instead (DESIGN.md §5f)"
            ));
        }
    }
    for (file, sites) in &loops {
        let budget = RETRY_LOOP_BUDGETS
            .iter()
            .find(|(f, _)| f == file)
            .map_or(0, |(_, n)| *n);
        if sites.len() > budget {
            for (lineno, line) in sites {
                failures.push(format!("{file}:{lineno}: raw retry loop: {line}"));
            }
            failures.push(format!(
                "{file}: {} retry loop(s), budget {budget} — route retries through \
                 aryn_llm::reliability (metered, jittered, breaker-guarded) instead of \
                 a hand-rolled attempt loop",
                sites.len()
            ));
        } else if sites.len() < budget {
            println!(
                "xtask lint: note: {file} retry-loop budget {budget} but only {} site(s) — \
                 tighten RETRY_LOOP_BUDGETS in crates/xtask/src/main.rs",
                sites.len()
            );
        }
    }
    Ok(())
}

// --- Raw-filesystem-write scan ------------------------------------------------

/// The grandfathered raw `std::fs` write sites outside the VFS: the bench
/// trace exporter (reports, not durable state). Shrink when one is removed;
/// never grow one — durable state goes through `aryn_core::vfs`.
const RAW_FS_BUDGETS: &[(&str, usize)] = &[("crates/bench/src/lib.rs", 2)];

/// Library code must not mutate the filesystem with raw `std::fs` calls:
/// writes that bypass `aryn_core::vfs` (DESIGN.md §5k) are invisible to
/// chaos crash-points and skip the atomic temp→sync→rename discipline, so
/// a crash mid-write can corrupt the only copy. `aryn-core::vfs` itself is
/// the one place allowed to touch `std::fs`; test modules are auto-exempt.
fn raw_fs_scan(root: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    const PATTERNS: &[&str] = &[
        "fs::write(",
        "fs::rename(",
        "fs::remove_file(",
        "fs::remove_dir",
        "fs::create_dir_all(",
        "File::create(",
        "OpenOptions::new(",
    ];
    let mut counts: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries.flatten() {
        let dir = entry.path();
        // xtask holds the patterns as string literals (and is repo
        // automation, not library code).
        if dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        scan_dir_for(&dir.join("src"), root, PATTERNS, &mut counts)?;
    }
    // aryn-core::vfs is the single sanctioned std::fs user.
    counts.remove("crates/aryn-core/src/vfs.rs");
    for (file, sites) in &counts {
        let budget = RAW_FS_BUDGETS
            .iter()
            .find(|(f, _)| f == file)
            .map_or(0, |(_, n)| *n);
        if sites.len() > budget {
            for (lineno, line) in sites {
                failures.push(format!("{file}:{lineno}: raw std::fs write in library code: {line}"));
            }
            failures.push(format!(
                "{file}: {} raw fs write(s), budget {budget} — route durable state through \
                 aryn_core::vfs (atomic, checksummed, chaos-coverable; DESIGN.md §5k) \
                 instead of std::fs",
                sites.len()
            ));
        } else if sites.len() < budget {
            println!(
                "xtask lint: note: {file} raw-fs budget {budget} but only {} site(s) — \
                 tighten RAW_FS_BUDGETS in crates/xtask/src/main.rs",
                sites.len()
            );
        }
    }
    Ok(())
}

// --- Bench18 plan lint (`cargo xtask lint --plans`) ---------------------------

/// Runs the planner + static cost analyzer (DESIGN.md §5h) over every
/// bench18 question at smoke corpus sizes and fails on any Error-severity
/// diagnostic that survives the repair re-prompt. Warnings are printed but
/// do not fail the build: they flag soft budget pressure, not broken plans.
fn plan_lint() -> Result<(), String> {
    let fixture = luna::bench18::Bench18::build(luna::bench18::Bench18Cfg {
        n_ntsb: 14,
        n_earnings: 12,
        analyze_cost: true,
        ..Default::default()
    })
    .map_err(|e| format!("xtask lint --plans: bench18 fixture failed to build: {e}"))?;
    let mut failures = Vec::new();
    let mut warnings = 0usize;
    for q in &fixture.questions {
        match fixture.luna.check(&q.question) {
            Ok((plan, analysis)) => {
                for d in analysis.errors() {
                    failures.push(format!("plan {:?}: {d}", q.question));
                }
                warnings += analysis.diagnostics.len() - analysis.errors().len();
                let verdict = if analysis.has_errors() { "INFEASIBLE" } else { "feasible" };
                match fixture.luna.estimate_cost(&plan) {
                    Some(report) => println!(
                        "xtask lint --plans: {verdict:<10} calls {} tokens {} cost {}  {}",
                        report.llm.calls.render(),
                        report.llm.total_tokens().render(),
                        report.llm.cost_usd.render(),
                        q.question
                    ),
                    None => println!("xtask lint --plans: {verdict:<10} (no cost report)  {}", q.question),
                }
            }
            Err(e) => failures.push(format!("plan {:?}: planning failed: {e}", q.question)),
        }
    }
    if failures.is_empty() {
        println!(
            "xtask lint --plans: ok — {} plans analyzed, 0 hard diagnostics, {warnings} warning(s)",
            fixture.questions.len()
        );
        Ok(())
    } else {
        Err(format!(
            "xtask lint --plans: {} failure(s)\n{}",
            failures.len(),
            failures.join("\n")
        ))
    }
}

// --- Diagnostic-code doc check ----------------------------------------------

fn doc_code_check(root: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    let path = root.join("DESIGN.md");
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for (source, codes) in [
        ("luna::analyze", luna::analyze::codes::ALL),
        ("sycamore::lint", sycamore::lint::codes::ALL),
    ] {
        for code in codes {
            if !text.contains(&format!("`{code}`")) {
                failures.push(format!(
                    "DESIGN.md: diagnostic code `{code}` ({source}) is undocumented"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_skips_comments_and_test_blocks() {
        let src = "\
fn a() {
    let x = maybe().unwrap();
}
// commented.unwrap()
#[cfg(test)]
mod tests {
    fn b() {
        let y = maybe().unwrap();
    }
}
fn c() {
    other().expect(\"boom\");
}
";
        let sites = scan_source_for(src, FORBIDDEN);
        let linenos: Vec<usize> = sites.iter().map(|(n, _)| *n).collect();
        assert_eq!(linenos, vec![2, 12]);
    }

    #[test]
    fn model_call_pattern_is_detected() {
        let src = "\
fn call() {
    let r = self.model.generate(&req);
}
// comment: model.generate( is fine here
#[cfg(test)]
mod tests {
    fn t() {
        let r = model.generate(&req);
    }
}
";
        let sites = scan_source_for(src, &["model.generate("]);
        let linenos: Vec<usize> = sites.iter().map(|(n, _)| *n).collect();
        assert_eq!(linenos, vec![2]);
    }

    #[test]
    fn sleep_and_retry_patterns_are_detected() {
        let src = "\
fn wait() {
    std::thread::sleep(std::time::Duration::from_millis(5));
}
fn retry() {
    for attempt in 0..3 {
        let _ = attempt;
    }
}
// comment: thread::sleep( and for attempt are fine here
#[cfg(test)]
mod tests {
    fn t() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}
";
        let sleeps = scan_source_for(src, &["thread::sleep("]);
        assert_eq!(sleeps.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![2]);
        let loops = scan_source_for(src, &["for attempt", "while attempt"]);
        assert_eq!(loops.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn raw_fs_patterns_are_detected() {
        let src = "\
fn save() {
    std::fs::write(&path, data)?;
    std::fs::rename(&tmp, &path)?;
}
// comment: fs::write( is fine here
#[cfg(test)]
mod tests {
    fn t() {
        std::fs::write(&path, data).unwrap();
    }
}
";
        let sites = scan_source_for(src, &["fs::write(", "fs::rename("]);
        let linenos: Vec<usize> = sites.iter().map(|(n, _)| *n).collect();
        assert_eq!(linenos, vec![2, 3]);
    }

    #[test]
    fn repo_passes_its_own_lint() {
        lint(&repo_root()).expect("xtask lint must pass on the checked-in tree");
    }
}
