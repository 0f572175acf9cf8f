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
//! 6. **Knob-table check.** Every `pub` field of `luna::LunaConfig` and
//!    `sycamore::ExecConfig` has a row in README's knob table whose "Where"
//!    cell names the struct, and every field the table names for either
//!    struct exists.
//! 7. **Uncalled-pub-fn scan.** Every non-test `pub fn` in a library crate
//!    has a caller outside its own file, or a reasoned line in
//!    `crates/xtask/pub-fn-allow.txt` (see [`uncalled_pub_fn_scan`]).
//!
//! `lint --plans` is the plan-feasibility pass: it builds the bench18
//! fixture at smoke corpus sizes, plans every question with the static cost
//! analyzer enabled (DESIGN.md §5h), and fails on any Error-severity
//! diagnostic (L22/L23 hard infeasibility, or any semantic error) that
//! survives the repair re-prompt.

use std::collections::{BTreeMap, BTreeSet};
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
    knob_table_check(root, &mut failures)?;
    uncalled_pub_fn_scan(root, &mut failures)?;
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
    let mut files = Vec::new();
    read_rs_files(dir, root, &mut files)?;
    for (rel, text) in files {
        for site in scan_source_for(&text, patterns) {
            counts.entry(rel.clone()).or_default().push(site);
        }
    }
    Ok(())
}

/// Appends (repo-relative path, text) for every `.rs` file under `dir`; a
/// missing `dir` adds nothing.
fn read_rs_files(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            read_rs_files(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, text));
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
    code_lines(text)
        .into_iter()
        .filter(|(_, line)| patterns.iter().any(|p| line.contains(p)))
        .map(|(lineno, line)| (lineno, line.to_string()))
        .collect()
}

/// (1-based line, trimmed text) of each line outside comments and
/// `#[cfg(test)]` blocks.
fn code_lines(text: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim();
        if trimmed.starts_with("#[cfg(test)]") {
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
        if !trimmed.starts_with("//") {
            out.push((i + 1, trimmed));
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

// --- Uncalled-pub-fn scan -----------------------------------------------------

/// Caller directories besides every crate's `src`, `tests` and `benches`.
const CALLER_DIRS: [&str; 3] = ["tests", "examples", "benchmark/src"];

/// Crates whose `pub fn`s are not library API (repo automation and the bench
/// harness); they still count as callers.
const NON_LIBRARY_CRATES: [&str; 2] = ["xtask", "bench"];

/// Allowlist entries beyond this mean the rule no longer describes the code.
const PUB_FN_ALLOW_MAX: usize = 39;

/// Every non-test `pub fn` in a library crate's `src/` must be named by some
/// other file under a caller directory, or have a `path name reason` line in
/// `crates/xtask/pub-fn-allow.txt`; otherwise it is surface nothing uses.
/// Matching is by name, so this is a lower bound: a common name (`new`,
/// `len`) passes whenever any other file says it. A `pub use` re-export and
/// a comment name a function without calling it, so neither counts.
fn uncalled_pub_fn_scan(root: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries.flatten() {
        for sub in ["src", "tests", "benches"] {
            read_rs_files(&entry.path().join(sub), root, &mut files)?;
        }
    }
    for dir in CALLER_DIRS {
        read_rs_files(&root.join(dir), root, &mut files)?;
    }
    files.sort();
    let allow = load_pub_fn_allowlist(root)?;
    if allow.len() > PUB_FN_ALLOW_MAX {
        failures.push(format!(
            "crates/xtask/pub-fn-allow.txt: {} entries, at most {PUB_FN_ALLOW_MAX} — \
             delete or narrow functions instead of allowing them",
            allow.len()
        ));
    }
    let uncalled = uncalled_pub_fns(&files);
    for (file, lineno, name) in &uncalled {
        if !allow.contains(&(file.clone(), name.clone())) {
            failures.push(format!(
                "{file}:{lineno}: `pub fn {name}` has no caller outside its file — delete it, \
                 make it private or `pub(crate)`, or allow it with a reason in \
                 crates/xtask/pub-fn-allow.txt"
            ));
        }
    }
    for (file, name) in &allow {
        if !uncalled.iter().any(|(f, _, n)| f == file && n == name) {
            failures.push(format!(
                "crates/xtask/pub-fn-allow.txt: `{file} {name}` is no uncalled pub fn — \
                 remove the line"
            ));
        }
    }
    Ok(())
}

/// (file, 1-based line, name) of each non-test `pub fn` in a library crate's
/// `src/` that no other of `files` (repo-relative path, text) names.
fn uncalled_pub_fns(files: &[(String, String)]) -> Vec<(String, usize, String)> {
    let words: Vec<BTreeSet<&str>> = files.iter().map(|(_, text)| caller_words(text)).collect();
    let mut out = Vec::new();
    for (i, (rel, text)) in files.iter().enumerate() {
        if !is_library_src(rel) {
            continue;
        }
        for (lineno, line) in code_lines(text) {
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            let called = words
                .iter()
                .enumerate()
                .any(|(j, w)| j != i && w.contains(name));
            if !called {
                out.push((rel.clone(), lineno, name.to_string()));
            }
        }
    }
    out
}

fn is_library_src(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates")
        && parts
            .next()
            .is_some_and(|c| !NON_LIBRARY_CRATES.contains(&c))
        && parts.next() == Some("src")
}

/// The name a trimmed line declares as `pub [const|async|unsafe] fn`.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|name| !name.is_empty())
}

/// The words `text` says outside comment lines and `pub use` statements.
fn caller_words(text: &str) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    let mut in_reexport = false;
    for line in text.lines().map(str::trim) {
        in_reexport |= line.starts_with("pub use ");
        if in_reexport {
            in_reexport = !line.contains(';');
            continue;
        }
        if !line.starts_with("//") {
            out.extend(line.split(|c: char| !(c.is_alphanumeric() || c == '_')));
        }
    }
    out
}

/// Parses `pub-fn-allow.txt`: `path name reason` lines, `#` comments; a line
/// without a reason is an error.
fn load_pub_fn_allowlist(root: &Path) -> Result<BTreeSet<(String, String)>, String> {
    let path = root.join("crates/xtask/pub-fn-allow.txt");
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = BTreeSet::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        match (parts.next(), parts.next(), parts.next().map(str::trim)) {
            (Some(file), Some(name), Some(reason)) if !reason.is_empty() => {
                out.insert((file.to_string(), name.to_string()));
            }
            _ => {
                return Err(format!(
                    "malformed pub-fn allowlist line (want `path name reason`): {line:?}"
                ))
            }
        }
    }
    Ok(out)
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
        cost_analysis: luna::CostAnalysis::Analyze,
        ..Default::default()
    })
    .map_err(|e| format!("xtask lint --plans: bench18 fixture failed to build: {e}"))?;
    let mut failures = Vec::new();
    let (mut warnings, mut hints) = (0usize, 0usize);
    for q in &fixture.questions {
        match fixture.luna.check(&q.question) {
            Ok((plan, analysis)) => {
                for d in analysis.errors() {
                    failures.push(format!("plan {:?}: {d}", q.question));
                }
                warnings += analysis.count(aryn_core::Severity::Warning);
                hints += analysis.count(aryn_core::Severity::Hint);
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
            "xtask lint --plans: ok — {} plans analyzed, 0 hard diagnostics, {warnings} warning(s), {hints} hint(s)",
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

// --- README knob-table check ------------------------------------------------

/// The config structs README's knob table documents: (source file, struct
/// name, path the table's "Where" cell names it by).
const KNOB_STRUCTS: [(&str, &str, &str); 2] = [
    ("crates/luna/src/luna.rs", "LunaConfig", "luna::LunaConfig"),
    (
        "crates/sycamore/src/context.rs",
        "ExecConfig",
        "sycamore::ExecConfig",
    ),
];

fn knob_table_check(root: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let readme = read("README.md")?;
    for (file, name, path) in KNOB_STRUCTS {
        let fields =
            pub_fields(&read(file)?, name).ok_or(format!("{file}: no `pub struct {name}`"))?;
        failures.extend(knob_table_drift(&readme, &fields, path));
    }
    Ok(())
}

/// README rows missing for `fields`, and rows naming a `path` field that
/// does not exist.
fn knob_table_drift(readme: &str, fields: &[String], path: &str) -> Vec<String> {
    let rows = table_fields(readme, path);
    let missing = fields
        .iter()
        .filter(|f| !rows.contains(*f))
        .map(|f| format!("README.md: knob table has no row for `{path}.{f}`"));
    let unknown = rows
        .iter()
        .filter(|r| !fields.contains(r))
        .map(|r| format!("README.md: knob table names `{path}.{r}`, not a field"));
    missing.chain(unknown).collect()
}

/// The `pub` field names of `pub struct {name} { … }` in `src`, in order;
/// `None` when the struct is missing or its body never closes.
fn pub_fields(src: &str, name: &str) -> Option<Vec<String>> {
    let start = src.find(&format!("pub struct {name} {{"))?;
    let mut fields = Vec::new();
    for line in src[start..].lines().skip(1).map(str::trim) {
        if line.starts_with('}') {
            return Some(fields);
        }
        if let Some((field, _)) = line.strip_prefix("pub ").and_then(|l| l.split_once(':')) {
            fields.push(field.trim().to_string());
        }
    }
    None
}

/// The config fields a markdown table names for `path`: in a row whose
/// second ("Where") cell mentions `path`, `path.field` names `field`, and a
/// bare `path` names every backticked knob in the row's first cell.
fn table_fields(markdown: &str, path: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in markdown.lines().filter(|l| l.starts_with('|')) {
        let cells: Vec<&str> = line.split('|').collect();
        let (Some(knob), Some(place)) = (cells.get(1), cells.get(2)) else { continue };
        for (at, _) in place.match_indices(path) {
            let rest = &place[at + path.len()..];
            match rest.strip_prefix('.') {
                Some(tail) => {
                    let end = tail
                        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .unwrap_or(tail.len());
                    out.insert(tail[..end].to_string());
                }
                None => out.extend(knob.split('`').skip(1).step_by(2).map(str::to_string)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_table_parser_reads_fields_and_rows() {
        let src = "\
/// Config.
pub struct Cfg {
    /// Doc with pub words: a field.
    pub alpha: usize,
    pub beta: Option<Box<dyn Fn()>>,
    hidden: bool,
}
pub struct Other {
    pub gamma: u8,
}
";
        assert_eq!(pub_fields(src, "Cfg"), Some(vec!["alpha".to_string(), "beta".to_string()]));
        assert_eq!(pub_fields(src, "Missing"), None);
        let table = "\
| Knob | Where | Default | Effect |
|---|---|---|---|
| `threads` | `sycamore::ExecConfig`, `luna::LunaConfig.exec_workers` | `1` | x |
| `a` / `b` | `luna::LunaConfig`, `Bench18Cfg` | `0` | y |
| `c` | `luna::ServeConfig` | `0` | z |
";
        let names: Vec<String> = table_fields(table, "luna::LunaConfig").into_iter().collect();
        assert_eq!(names, vec!["a", "b", "exec_workers"]);
        // The same table read for the engine's struct: a bare path names the
        // row's knobs, and drift is reported both ways.
        let names: Vec<String> = table_fields(table, "sycamore::ExecConfig")
            .into_iter()
            .collect();
        assert_eq!(names, vec!["threads"]);
        let exec = vec!["threads".to_string(), "seed".to_string()];
        assert_eq!(
            knob_table_drift(table, &exec, "sycamore::ExecConfig"),
            vec!["README.md: knob table has no row for `sycamore::ExecConfig.seed`"]
        );
        assert_eq!(
            knob_table_drift(table, &exec[..0], "sycamore::ExecConfig"),
            vec!["README.md: knob table names `sycamore::ExecConfig.threads`, not a field"]
        );
        for (file, name, _) in KNOB_STRUCTS {
            let src = fs::read_to_string(repo_root().join(file)).unwrap();
            assert!(
                pub_fields(&src, name).is_some_and(|f| !f.is_empty()),
                "{file}: {name}"
            );
        }
    }

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
/// A comment naming `#[cfg(test)]` is no attribute.
fn c() {
    other().expect(\"boom\");
}
";
        let sites = scan_source_for(src, FORBIDDEN);
        let linenos: Vec<usize> = sites.iter().map(|(n, _)| *n).collect();
        assert_eq!(linenos, vec![2, 13]);
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

    /// Rule 7 over an in-memory tree: the uncalled `pub fn`s, by name.
    fn uncalled(files: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect();
        uncalled_pub_fns(&files)
            .into_iter()
            .map(|(_, _, name)| name)
            .collect()
    }

    const LIB: &str = "\
pub fn reexported() {}
pub(crate) fn internal() {}
#[cfg(test)]
pub fn test_helper() {}
";

    #[test]
    fn a_pub_use_reexport_is_not_a_caller() {
        let lib_rs = "pub use crate::a::{\n    reexported,\n};\n// reexported() in a comment\n";
        let files = [
            ("crates/foo/src/a.rs", LIB),
            ("crates/foo/src/lib.rs", lib_rs),
        ];
        assert_eq!(uncalled(&files), vec!["reexported"]);
    }

    #[test]
    fn a_caller_in_the_benchmark_counts() {
        let bench = "fn main() {\n    foo::reexported();\n}\n";
        let files = [
            ("crates/foo/src/a.rs", LIB),
            ("benchmark/src/main.rs", bench),
        ];
        assert!(uncalled(&files).is_empty());
        // The bench harness crate is a caller, not library API.
        let files = [("crates/bench/src/lib.rs", "pub fn export() {}\n")];
        assert!(uncalled(&files).is_empty());
    }

    #[test]
    fn a_call_from_the_functions_own_test_module_does_not_count() {
        let lib = "\
pub fn tested_here() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::tested_here();
    }
}
";
        assert_eq!(
            uncalled(&[("crates/foo/src/a.rs", lib)]),
            vec!["tested_here"]
        );
        assert_eq!(pub_fn_name("pub const fn new() -> Self {"), Some("new"));
        assert_eq!(pub_fn_name("pub(crate) fn hidden() {"), None);
    }

    #[test]
    fn repo_passes_its_own_lint() {
        lint(&repo_root()).expect("xtask lint must pass on the checked-in tree");
    }
}
