//! Prompt construction and parsing.
//!
//! Sycamore's LLM transforms use "built-in prompts" (§5.2). Ours are English
//! instructions with machine-delimited sections, the way production systems
//! template prompts:
//!
//! ```text
//! You are a careful data analyst. Extract the requested fields ...
//! [TASK] extract
//! [PARAMS] {"schema": {"us_state_abbrev": "string"}}
//! [CONTEXT]
//! <document text>
//! [END]
//! Respond with JSON only.
//! ```
//!
//! The simulated models parse the `[TASK]`/`[PARAMS]`/`[CONTEXT]` sections to
//! know what semantic operation to perform; a real provider would read the
//! English. Both travel in the same string, so token accounting, context
//! windows, and retries all see realistic prompt sizes.

use crate::registry::TaskKind;
use aryn_core::json;
use aryn_core::{ArynError, Result, Value};

/// A parsed structured task, as the simulated model sees it: the context
/// is borrowed from the prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTask<'a> {
    pub kind: TaskKind,
    pub params: Value,
    pub context: &'a str,
}

/// Builds a task prompt from its parts.
pub fn build_prompt(kind: TaskKind, params: &Value, context: &str) -> String {
    let instructions = match kind {
        TaskKind::Extract => {
            "You are a careful data analyst. Extract the fields requested by the schema from the \
             document below. Use null when a field cannot be determined."
        }
        TaskKind::Filter => {
            "You are a careful data analyst. Decide whether the document below matches the \
             predicate. Answer with a JSON object {\"match\": true|false}."
        }
        TaskKind::Classify => {
            "You are a careful data analyst. Choose the single best label for the document below \
             from the provided labels. Answer with {\"label\": \"...\"}."
        }
        TaskKind::Summarize => {
            "You are a careful data analyst. Summarize the document below, following the \
             instructions. Answer with {\"summary\": \"...\"}."
        }
        TaskKind::Answer => {
            "You are a careful data analyst. Answer the question strictly from the context below. \
             If the context does not contain the answer, say so. Answer with {\"answer\": \"...\"}."
        }
        TaskKind::Plan => {
            "You are a query planner. Given the user's question, the data schema, and the \
             available operators, produce a query plan as a JSON DAG."
        }
        TaskKind::Batch => {
            "You are a careful data analyst. The context contains several independent items, \
             each introduced by an [ITEM k] marker. Perform the inner task on every item \
             separately, as if each were its own request. Answer with a single JSON object \
             keyed by item index: {\"0\": <result>, \"1\": <result>, ...}."
        }
    };
    format!(
        "{instructions}\n[TASK] {}\n[PARAMS] {}\n[CONTEXT]\n{}\n[END]\nRespond with JSON only.",
        kind.name(),
        json::to_string(params),
        context
    )
}

/// Parses the structured sections back out of a prompt. Returns an error for
/// prompts that do not follow the template (a real model would freestyle; the
/// simulated ones refuse, which surfaces template bugs loudly in tests).
pub fn parse_prompt(prompt: &str) -> Result<ParsedTask<'_>> {
    let task_line = section_line(prompt, "[TASK]")
        .ok_or_else(|| ArynError::Llm("prompt missing [TASK] section".into()))?;
    let kind = TaskKind::from_name(task_line.trim())
        .ok_or_else(|| ArynError::Llm(format!("unknown task kind {task_line:?}")))?;
    let params_line = section_line(prompt, "[PARAMS]")
        .ok_or_else(|| ArynError::Llm("prompt missing [PARAMS] section".into()))?;
    let params = json::parse(params_line.trim())
        .map_err(|e| ArynError::Llm(format!("bad [PARAMS] json: {e}")))?;
    let context = between(prompt, "[CONTEXT]\n", "\n[END]")
        .ok_or_else(|| ArynError::Llm("prompt missing [CONTEXT] section".into()))?;
    Ok(ParsedTask {
        kind,
        params,
        context,
    })
}

/// Builds a batched prompt wrapping `task` over K indexed items. The inner
/// task name and params travel in `[PARAMS]`; each item's payload sits under
/// its `[ITEM k]` marker in `[CONTEXT]`. Batch positions are always
/// `0..items.len()` — callers keep their own position → document mapping.
pub fn build_batch_prompt(task: TaskKind, params: &Value, items: &[String]) -> String {
    let mut ctx = String::new();
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            ctx.push('\n');
        }
        ctx.push_str(&format!("[ITEM {i}]\n"));
        ctx.push_str(item.trim_end());
    }
    let p = aryn_core::obj! {
        "task" => task.name(),
        "params" => params.clone(),
        "count" => items.len() as i64,
    };
    build_prompt(TaskKind::Batch, &p, &ctx)
}

/// Recovers the inner `(task, params, count)` from a parsed batch prompt's
/// `[PARAMS]` value.
pub fn parse_batch_params(params: &Value) -> Result<(TaskKind, Value, usize)> {
    let name = params
        .get("task")
        .and_then(Value::as_str)
        .ok_or_else(|| ArynError::Llm("batch params missing inner task".into()))?;
    let kind = TaskKind::from_name(name)
        .ok_or_else(|| ArynError::Llm(format!("unknown inner batch task {name:?}")))?;
    let inner = params
        .get("params")
        .cloned()
        .ok_or_else(|| ArynError::Llm("batch params missing inner params".into()))?;
    let count = params.get("count").and_then(Value::as_int).unwrap_or(0).max(0) as usize;
    Ok((kind, inner, count))
}

/// Splits a batch context back into the per-item payloads. Markers are
/// sequential `[ITEM 0]`, `[ITEM 1]`, … — a marker only opens a new item
/// when its index is the next expected one, so item text mentioning
/// unrelated `[ITEM …]` strings cannot desynchronize the split.
pub fn split_batch_items(context: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut cur: Option<String> = None;
    for line in context.lines() {
        let started = out.len() + usize::from(cur.is_some());
        if line.trim() == format!("[ITEM {started}]") {
            if let Some(c) = cur.take() {
                out.push(c.trim_end().to_string());
            }
            cur = Some(String::new());
        } else if let Some(c) = cur.as_mut() {
            c.push_str(line);
            c.push('\n');
        }
    }
    if let Some(c) = cur.take() {
        out.push(c.trim_end().to_string());
    }
    out
}

fn section_line<'a>(text: &'a str, tag: &str) -> Option<&'a str> {
    let start = find_tag(text, tag)? + tag.len();
    let rest = &text[start..];
    Some(rest.split('\n').next().unwrap_or(rest))
}

fn between<'a>(text: &'a str, start_tag: &str, end_tag: &str) -> Option<&'a str> {
    let start = find_tag(text, start_tag)? + start_tag.len();
    let rest = &text[start..];
    let end = rest.rfind(end_tag)?;
    Some(&rest[..end])
}

/// `text.find(tag)` for a tag that opens with `[`, looked for only where a
/// `[` stands: the bracket is rare in a prompt and found by byte search.
fn find_tag(text: &str, tag: &str) -> Option<usize> {
    debug_assert!(tag.starts_with('['));
    text.match_indices('[').map(|(at, _)| at).find(|&at| text[at..].starts_with(tag))
}

/// Convenience constructors for the common tasks.
pub mod tasks {
    use super::*;
    use aryn_core::obj;

    /// Extraction prompt from a JSON schema: `{"field": "type", ...}`.
    pub fn extract(schema: &Value, context: &str) -> String {
        build_prompt(TaskKind::Extract, &obj! { "schema" => schema.clone() }, context)
    }

    /// Semantic yes/no predicate.
    pub fn filter(predicate: &str, context: &str) -> String {
        build_prompt(TaskKind::Filter, &obj! { "predicate" => predicate }, context)
    }

    /// Closed-set classification.
    pub fn classify(question: &str, labels: &[&str], context: &str) -> String {
        build_prompt(
            TaskKind::Classify,
            &obj! {
                "question" => question,
                "labels" => labels.iter().map(|s| Value::from(*s)).collect::<Vec<_>>(),
            },
            context,
        )
    }

    /// Summarization with free-form instructions.
    pub fn summarize(instructions: &str, context: &str) -> String {
        build_prompt(
            TaskKind::Summarize,
            &obj! { "instructions" => instructions },
            context,
        )
    }

    /// RAG-style question answering over retrieved context.
    pub fn answer(question: &str, context: &str) -> String {
        build_prompt(TaskKind::Answer, &obj! { "question" => question }, context)
    }

    /// Luna's planning task.
    pub fn plan(question: &str, schema: &Value, operators: &[&str]) -> String {
        build_prompt(
            TaskKind::Plan,
            &obj! {
                "question" => question,
                "schema" => schema.clone(),
                "operators" => operators.iter().map(|s| Value::from(*s)).collect::<Vec<_>>(),
            },
            "",
        )
    }

    /// Luna's plan-repair task: the planning params plus the analyzer
    /// diagnostics the previous attempt triggered. Carrying the diagnostics
    /// as a param (not trailing prose) keeps them visible to `parse_prompt`
    /// and therefore to any registered planner engine.
    pub fn plan_repair(
        question: &str,
        schema: &Value,
        operators: &[&str],
        diagnostics: &str,
    ) -> String {
        build_prompt(
            TaskKind::Plan,
            &obj! {
                "question" => question,
                "schema" => schema.clone(),
                "operators" => operators.iter().map(|s| Value::from(*s)).collect::<Vec<_>>(),
                "diagnostics" => diagnostics,
            },
            "",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::obj;

    #[test]
    fn build_then_parse_roundtrip() {
        let params = obj! { "predicate" => "caused by wind" };
        let p = build_prompt(TaskKind::Filter, &params, "The wind gusted to 40 knots.");
        let t = parse_prompt(&p).unwrap();
        assert_eq!(t.kind, TaskKind::Filter);
        assert_eq!(t.params, params);
        assert_eq!(t.context, "The wind gusted to 40 knots.");
    }

    #[test]
    fn context_may_contain_end_like_lines() {
        // rfind means an [END] inside the document doesn't truncate context.
        let ctx = "para one\n[END]\npara two";
        let p = build_prompt(TaskKind::Summarize, &obj! { "instructions" => "short" }, ctx);
        let t = parse_prompt(&p).unwrap();
        assert_eq!(t.context, ctx);
    }

    #[test]
    fn tags_are_found_where_find_finds_them() {
        for text in ["", "[", "x[TASK] a\n[TASK] b", "[[TASK]", "[PARAMS][TASK]", "\u{e9}[CONTEXT]\n[", "[TAS[TASK]"] {
            for tag in ["[TASK]", "[PARAMS]", "[CONTEXT]\n"] {
                assert_eq!(find_tag(text, tag), text.find(tag), "{tag:?} in {text:?}");
            }
        }
    }

    #[test]
    fn parse_rejects_nonconforming_prompts() {
        assert!(parse_prompt("tell me a joke").is_err());
        assert!(parse_prompt("[TASK] dance\n[PARAMS] {}\n[CONTEXT]\nx\n[END]").is_err());
        assert!(parse_prompt("[TASK] filter\n[PARAMS] not json\n[CONTEXT]\nx\n[END]").is_err());
    }

    #[test]
    fn task_constructors_embed_params() {
        let p = tasks::classify("root cause?", &["wind", "fog"], "doc");
        let t = parse_prompt(&p).unwrap();
        assert_eq!(t.kind, TaskKind::Classify);
        let labels = t.params.get("labels").unwrap().as_array().unwrap();
        assert_eq!(labels.len(), 2);

        let p = tasks::plan("how many incidents?", &obj! { "state" => "string" }, &["scan", "count"]);
        let t = parse_prompt(&p).unwrap();
        assert_eq!(t.kind, TaskKind::Plan);
        assert_eq!(t.params.get("question").unwrap().as_str(), Some("how many incidents?"));
    }

    #[test]
    fn english_instructions_present() {
        let p = tasks::extract(&obj! { "state" => "string" }, "doc");
        assert!(p.contains("data analyst"), "prompts must carry real instructions");
        assert!(p.contains("Respond with JSON only."));
    }
}
