//! The query planner: natural language → plan JSON.
//!
//! [`RulePlanner`] is the simulated planner-LLM's brain: a rule grammar over
//! analytic question shapes (percent-of, count, average/total, top-k,
//! group-by-most, list, describe). It registers as an [`aryn_llm::TaskEngine`]
//! for the `plan` task, so planning flows through the same LLM API as every
//! other call — prompt in, JSON text out, subject to the model's error model
//! (a weak model truncates plans; Luna's validator catches it and re-asks).
//!
//! Like its real counterpart, the grammar has blind spots: negated
//! predicates lose their negation, and "compare A and B" questions keep only
//! A. The §6 micro-benchmark's incorrect/plausible answers come from these
//! misinterpretations, which is exactly the failure mode the paper reports
//! ("the intention of certain ambiguous questions was misinterpreted by the
//! query planner").

use crate::ops::{Plan, PlanNode, PlanOp};
use crate::schema::IndexSchema;
use aryn_core::{json, lexicon, Value};
use aryn_llm::mock::{EngineCtx, TaskEngine};
use aryn_llm::prompt::ParsedTask;
use aryn_llm::registry::TaskKind;

/// Rule-based planner over discovered index schemas.
#[derive(Debug, Clone)]
pub struct RulePlanner {
    pub schemas: Vec<IndexSchema>,
}

impl RulePlanner {
    pub fn new(schemas: Vec<IndexSchema>) -> RulePlanner {
        RulePlanner { schemas }
    }

    /// Picks the target index from question vocabulary.
    fn pick_index(&self, q: &str) -> &IndexSchema {
        let ql = q.to_lowercase();
        let ntsb_cues = ["incident", "accident", "crash", "ntsb", "aircraft", "aviation", "pilot"];
        let earn_cues = [
            "company", "companies", "revenue", "earnings", "ceo", "sector", "guidance", "growth",
            "eps", "quarter", "market",
        ];
        let score = |cues: &[&str]| cues.iter().filter(|c| ql.contains(*c)).count();
        let ntsb = score(&ntsb_cues);
        let earn = score(&earn_cues);
        let want = if earn > ntsb { "earnings" } else { "ntsb" };
        self.schemas
            .iter()
            .find(|s| s.index == want)
            .unwrap_or(&self.schemas[0])
    }

    /// Plans a question. Always returns *some* plan; misinterpretations show
    /// up as subtly wrong plans, not errors.
    pub fn plan_question(&self, question: &str) -> Plan {
        let schema = self.pick_index(question);
        let ql = question.to_lowercase();
        let ql = ql.trim_end_matches(['?', '.', '!']).to_string();

        // Data-integration suffix (§1: "...and their competitors"): plan the
        // base question, then append a knowledge-graph expansion before the
        // final generation step.
        for (suffix, relation, output) in [
            (" and their competitors", "competitor_of", "competitors"),
            (" and their competition", "competitor_of", "competitors"),
        ] {
            if let Some(base_q) = ql.strip_suffix(suffix) {
                let plan = self.plan_question(base_q);
                return graft_graph_expand(plan, relation, output, question);
            }
        }

        let mut b = PlanBuilder::new(schema.index.clone());

        // --- "what percent of <A> were <B>" (Figure 5 shape) ---------------
        if let Some(rest) = strip_prefixes(&ql, &["what percent of ", "what percentage of "]) {
            if let Some((a_clause, sep, b_clause)) = split_once_any_with_sep(
                rest,
                &[" were due to ", " were caused by ", " were ", " involved ", " are "],
            ) {
                let base = b.scan();
                let denom_f = b.filter_from_clause(schema, base, a_clause);
                let denom = b.count(denom_f);
                // Causal separators keep their framing ("due to wind" →
                // "caused by wind", not a bare keyword match).
                let b_clause_framed = if sep.contains("due to") || sep.contains("caused by") {
                    format!("caused by {b_clause}")
                } else {
                    b_clause.to_string()
                };
                // Faithful to the paper's plan: the numerator filters the
                // base scan by B (assuming B ⊆ A).
                let num_f = b.filter_from_clause(schema, base, &b_clause_framed);
                let num = b.count(num_f);
                let expr = format!("100 * {{out_{num}}} / {{out_{denom}}}");
                let result = b.math(&expr, vec![denom, num]);
                return b.finish(result);
            }
        }

        // --- "how many ..." -------------------------------------------------
        if let Some(rest) = strip_prefixes(&ql, &["how many "]) {
            let base = b.scan();
            let filtered = b.filter_from_clause(schema, base, rest);
            let result = b.count(filtered);
            return b.finish(result);
        }

        // --- "average/mean/total <field> ..." -------------------------------
        for (cue, func) in [
            ("average ", "avg"),
            ("mean ", "avg"),
            ("total ", "sum"),
            ("median ", "avg"), // blind spot: median approximated by avg
        ] {
            if let Some(pos) = ql.find(&format!("what is the {cue}")).map(|p| p + 12 + cue.len())
                .or_else(|| ql.find(&format!("what was the {cue}")).map(|p| p + 13 + cue.len()))
                .or_else(|| ql.strip_prefix(cue).map(|_| cue.len()))
            {
                let rest = &ql[pos..];
                // "<field mention> of|for <filter clause>" or just field.
                let (field_mention, filter_clause) =
                    split_once_any(rest, &[" of companies ", " of incidents ", " for ", " of ", " across "])
                        .map(|(f, c)| (f, Some(c)))
                        .unwrap_or((rest, None));
                let field = schema
                    .resolve_field(field_mention)
                    .map(|f| f.path.clone())
                    .unwrap_or_else(|| field_mention.trim().replace(' ', "_"));
                let base = b.scan();
                let filtered = match filter_clause {
                    Some(c) => b.filter_from_clause(schema, base, c),
                    None => base,
                };
                let result = b.push(
                    PlanOp::Aggregate {
                        key: String::new(),
                        func: func.into(),
                        path: field,
                    },
                    vec![filtered],
                );
                return b.finish(result);
            }
        }

        // --- "what was the most common <field>" (group-by count over a
        //     possibly query-time-extracted field — Figure 5's "LLM Extract
        //     incident root cause" shape) -------------------------------------
        if let Some(field_mention) = strip_prefixes(
            &ql,
            &["what was the most common ", "what is the most common ", "most common "],
        ) {
            let field_mention = field_mention
                .trim_end_matches(" of incidents")
                .trim_end_matches(" of companies");
            let base = b.scan();
            // Resolve against the schema; if absent, extract at query time.
            let (input, field) = match schema.resolve_field(field_mention) {
                Some(f) => (base, f.path.clone()),
                None => {
                    let field = field_mention.trim().replace(' ', "_");
                    let extracted = b.push(
                        PlanOp::LlmExtract {
                            field: field.clone(),
                            ftype: "string".into(),
                            model: String::new(),
                        },
                        vec![base],
                    );
                    (extracted, field)
                }
            };
            let grouped = b.push(
                PlanOp::Aggregate {
                    key: field,
                    func: "count".into(),
                    path: String::new(),
                },
                vec![input],
            );
            let top = b.push(
                PlanOp::TopK {
                    path: "count".into(),
                    descending: true,
                    k: 1,
                },
                vec![grouped],
            );
            let result = b.push(
                PlanOp::LlmGenerate {
                    question: question.to_string(),
                },
                vec![top],
            );
            return b.finish(result);
        }

        // --- "which <entity> had the most <things>" (group-by count) -------
        if let Some((entity_mention, _rest)) = which_most(&ql) {
            let base = b.scan();
            // Group by the entity field and count; take the top group.
            let entity = schema
                .resolve_field(entity_mention)
                .map(|f| f.path.clone())
                .unwrap_or_else(|| entity_mention.trim().replace(' ', "_"));
            let grouped = b.push(
                PlanOp::Aggregate {
                    key: entity,
                    func: "count".into(),
                    path: String::new(),
                },
                vec![base],
            );
            let top = b.push(
                PlanOp::TopK {
                    path: "count".into(),
                    descending: true,
                    k: 1,
                },
                vec![grouped],
            );
            let result = b.push(
                PlanOp::LlmGenerate {
                    question: question.to_string(),
                },
                vec![top],
            );
            return b.finish(result);
        }

        // --- "which/what <entity> had the highest <field>" (top-k) ----------
        if let Some((field_mention, filter_clause, k, descending)) = superlative(&ql) {
            let field = schema
                .resolve_field(field_mention)
                .map(|f| f.path.clone())
                .unwrap_or_else(|| field_mention.trim().replace(' ', "_"));
            let base = b.scan();
            let filtered = match filter_clause {
                Some(c) => b.filter_from_clause(schema, base, c),
                None => base,
            };
            let top = b.push(
                PlanOp::TopK {
                    path: field,
                    descending,
                    k,
                },
                vec![filtered],
            );
            let result = b.push(
                PlanOp::LlmGenerate {
                    question: question.to_string(),
                },
                vec![top],
            );
            return b.finish(result);
        }

        // --- "list ..." ------------------------------------------------------
        if let Some(rest) = strip_prefixes(&ql, &["list ", "show ", "give me ", "which companies ", "which incidents "]) {
            let base = b.scan();
            let filtered = b.filter_from_clause(schema, base, rest);
            let result = b.push(
                PlanOp::LlmGenerate {
                    question: question.to_string(),
                },
                vec![filtered],
            );
            return b.finish(result);
        }

        // --- "summarize ..." --------------------------------------------------
        if ql.starts_with("summarize") || ql.contains("overview") {
            let base = b.scan();
            let rest = ql.strip_prefix("summarize ").unwrap_or(&ql);
            let filtered = b.filter_from_clause(schema, base, rest);
            let result = b.push(
                PlanOp::SummarizeData {
                    instructions: question.to_string(),
                },
                vec![filtered],
            );
            return b.finish(result);
        }

        // --- fallback: filter by whatever clauses we find, then generate -----
        let base = b.scan();
        let filtered = b.filter_from_clause(schema, base, &ql);
        let result = b.push(
            PlanOp::LlmGenerate {
                question: question.to_string(),
            },
            vec![filtered],
        );
        b.finish(result)
    }
}

/// Incremental plan construction.
struct PlanBuilder {
    index: String,
    nodes: Vec<PlanNode>,
}

impl PlanBuilder {
    fn new(index: String) -> PlanBuilder {
        PlanBuilder {
            index,
            nodes: Vec::new(),
        }
    }

    fn push(&mut self, op: PlanOp, inputs: Vec<usize>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(PlanNode {
            id,
            op,
            inputs,
            description: String::new(),
        });
        id
    }

    fn scan(&mut self) -> usize {
        // Reuse an existing scan of the same index (shared DAG input, as in
        // Figure 5 where out_0 feeds both branches).
        if let Some(existing) = self.nodes.iter().find(
            |n| matches!(&n.op, PlanOp::QueryDatabase { index, .. } if *index == self.index),
        ) {
            return existing.id;
        }
        let index = self.index.clone();
        self.push(
            PlanOp::QueryDatabase {
                index,
                prefilter: vec![],
            },
            vec![],
        )
    }

    fn count(&mut self, input: usize) -> usize {
        self.push(PlanOp::Count, vec![input])
    }

    fn math(&mut self, expr: &str, inputs: Vec<usize>) -> usize {
        self.push(
            PlanOp::Math {
                expr: expr.to_string(),
            },
            inputs,
        )
    }

    /// Extracts filters from a clause and chains them after `input`.
    /// Emits semantic (llmFilter) predicates — converting them to cheap
    /// structured filters is the optimizer's job, not the planner's.
    fn filter_from_clause(&mut self, schema: &IndexSchema, input: usize, clause: &str) -> usize {
        let mut cur = input;
        let c = clause.to_lowercase();
        let mut matched_any = false;

        // Report-id mentions ("incident ntsb-00012") become exact id
        // lookups on the `_id` pseudo-field — no LLM needed.
        for word in c.split_whitespace() {
            let w = word.trim_matches(|ch: char| !ch.is_ascii_alphanumeric() && ch != '-');
            if let Some((prefix, digits)) = w.split_once('-') {
                if !prefix.is_empty()
                    && prefix.chars().all(|ch| ch.is_ascii_alphabetic())
                    && digits.len() >= 3
                    && digits.chars().all(|ch| ch.is_ascii_digit())
                {
                    cur = self.push(
                        PlanOp::BasicFilter {
                            path: "_id".into(),
                            value: Value::from(w),
                        },
                        vec![cur],
                    );
                    matched_any = true;
                }
            }
        }

        // Causal predicates ("caused by X", "due to X").
        for marker in ["caused by ", "due to ", "attributed to "] {
            if let Some(pos) = c.find(marker) {
                let tail: String = c[pos + marker.len()..]
                    .split([',', '.'])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                if !tail.is_empty() {
                    cur = self.push(
                        PlanOp::LlmFilter {
                            predicate: format!("caused by {tail}"),
                            model: String::new(),
                        },
                        vec![cur],
                    );
                    matched_any = true;
                }
                break;
            }
        }
        // "environmentally caused" adjective form.
        if !matched_any && (c.contains("environmentally caused") || c.contains("weather related") || c.contains("weather-related")) {
            cur = self.push(
                PlanOp::LlmFilter {
                    predicate: "caused by environmental factors".into(),
                    model: String::new(),
                },
                vec![cur],
            );
            matched_any = true;
        }

        // Location: "in <State>" (full names only; abbreviations are too
        // ambiguous in prose).
        for (abbrev, full) in lexicon::US_STATES {
            if c.contains(&format!("in {}", full.to_lowercase())) {
                cur = self.push(
                    PlanOp::LlmFilter {
                        predicate: format!("occurred in {full} ({abbrev})"),
                        model: String::new(),
                    },
                    vec![cur],
                );
                matched_any = true;
                break;
            }
        }

        // Year mentions → structured range filter (time is structured even
        // for the planner; embedding-based systems cannot do this, §2).
        // "between 2018 and 2020" / "from 2018 to 2020" bound a range;
        // "since 2019" / "after 2019" / "before 2021" are half-open; a bare
        // year is an exact match.
        let years: Vec<i64> = c
            .split(|ch: char| !ch.is_ascii_digit())
            .filter(|w| w.len() == 4)
            .filter_map(|w| w.parse::<i64>().ok())
            .filter(|y| (1990..2050).contains(y))
            .collect();
        if !years.is_empty() && schema.field("year").is_some() {
            let (lo, hi) = if years.len() >= 2 && (c.contains("between") || c.contains(" to ") || c.contains("from")) {
                let a = years[0].min(years[1]);
                let b = years[0].max(years[1]);
                (Some(a), Some(b))
            } else if c.contains("since") || c.contains("after") || c.contains("starting") {
                (Some(years[0]), None)
            } else if c.contains("before") || c.contains("until") || c.contains("prior to") {
                (None, Some(years[0] - 1))
            } else {
                (Some(years[0]), Some(years[0]))
            };
            cur = self.push(
                PlanOp::RangeFilter {
                    path: "year".into(),
                    lo: lo.map(Value::Int),
                    hi: hi.map(Value::Int),
                },
                vec![cur],
            );
            matched_any = true;
        }

        // Sector mentions (word-boundary aware so "AI market" matches the
        // AI sector but "air" does not).
        for sector in lexicon::SECTORS {
            if c.contains(&format!("{} sector", sector.to_lowercase()))
                || c.contains(&format!("in {}", sector.to_lowercase()))
                || ((c.contains("market") || c.contains("industry"))
                    && aryn_core::text::contains_term(&c, sector))
            {
                cur = self.push(
                    PlanOp::LlmFilter {
                        predicate: format!("in the {sector} sector"),
                        model: String::new(),
                    },
                    vec![cur],
                );
                matched_any = true;
                break;
            }
        }

        // CEO change.
        if c.contains("ceo") && (c.contains("chang") || c.contains("new ceo") || c.contains("recently")) {
            cur = self.push(
                PlanOp::LlmFilter {
                    predicate: "the CEO changed recently".into(),
                    model: String::new(),
                },
                vec![cur],
            );
            matched_any = true;
        }

        // Guidance.
        for g in ["lowered", "raised", "maintained"] {
            if c.contains(&format!("{g} their guidance")) || c.contains(&format!("{g} guidance")) {
                cur = self.push(
                    PlanOp::LlmFilter {
                        predicate: format!("the company {g} its guidance"),
                        model: String::new(),
                    },
                    vec![cur],
                );
                matched_any = true;
                break;
            }
        }

        // Sentiment.
        for s in ["negative", "positive"] {
            if c.contains(&format!("{s} sentiment")) || c.contains(&format!("{s} outlook")) {
                cur = self.push(
                    PlanOp::LlmFilter {
                        predicate: format!("carries a {s} sentiment"),
                        model: String::new(),
                    },
                    vec![cur],
                );
                matched_any = true;
                break;
            }
        }

        // Fatalities. BLIND SPOT: negation ("no fatalities", "without") is
        // not modelled — the filter keeps the positive sense.
        if c.contains("fatal") {
            cur = self.push(
                PlanOp::LlmFilter {
                    predicate: "involved a fatality".into(),
                    model: String::new(),
                },
                vec![cur],
            );
            matched_any = true;
        }

        // Revenue decline / growth qualifiers.
        if c.contains("declin") || c.contains("shrink") || c.contains("negative growth") {
            if let Some(f) = schema.field("growth_pct") {
                let _ = f;
                cur = self.push(
                    PlanOp::RangeFilter {
                        path: "growth_pct".into(),
                        lo: None,
                        hi: Some(Value::Float(0.0)),
                    },
                    vec![cur],
                );
                matched_any = true;
            }
        }

        // Nothing recognized: fall back to one semantic filter over the raw
        // clause, unless the clause is a bare entity word ("incidents").
        if !matched_any {
            let content: Vec<String> = aryn_core::text::analyze(&c)
                .into_iter()
                .filter(|t| !matches!(t.as_str(), "incid" | "company" | "companie" | "report" | "occur" | "all"))
                .collect();
            if !content.is_empty() {
                cur = self.push(
                    PlanOp::LlmFilter {
                        predicate: clause.trim().to_string(),
                        model: String::new(),
                    },
                    vec![cur],
                );
            }
        }
        cur
    }

    fn finish(mut self, result: usize) -> Plan {
        for n in &mut self.nodes {
            n.description = String::new();
        }
        Plan {
            nodes: self.nodes,
            result,
        }
    }
}

/// Inserts a `graphExpand` node before the plan's generation step (or at
/// the result if there is none), re-targeting the final answer.
fn graft_graph_expand(mut plan: Plan, relation: &str, output: &str, question: &str) -> Plan {
    let new_id = plan.nodes.iter().map(|n| n.id).max().unwrap_or(0) + 1;
    let gen_pos = plan
        .nodes
        .iter()
        .position(|n| matches!(n.op, PlanOp::LlmGenerate { .. }));
    match gen_pos {
        Some(pos) => {
            // generate(X) becomes generate(expand(X)).
            let gen_inputs = plan.nodes[pos].inputs.clone();
            plan.nodes.insert(
                pos,
                PlanNode {
                    id: new_id,
                    op: PlanOp::GraphExpand {
                        relation: relation.to_string(),
                        output: output.to_string(),
                    },
                    inputs: gen_inputs,
                    description: String::new(),
                },
            );
            plan.nodes[pos + 1].inputs = vec![new_id];
            if let PlanOp::LlmGenerate { question: q } = &mut plan.nodes[pos + 1].op {
                *q = question.to_string();
            }
        }
        None => {
            // Row-valued result: expand it and generate from the expansion.
            let result = plan.result;
            plan.nodes.push(PlanNode {
                id: new_id,
                op: PlanOp::GraphExpand {
                    relation: relation.to_string(),
                    output: output.to_string(),
                },
                inputs: vec![result],
                description: String::new(),
            });
            plan.nodes.push(PlanNode {
                id: new_id + 1,
                op: PlanOp::LlmGenerate {
                    question: question.to_string(),
                },
                inputs: vec![new_id],
                description: String::new(),
            });
            plan.result = new_id + 1;
        }
    }
    plan
}

fn strip_prefixes<'a>(s: &'a str, prefixes: &[&str]) -> Option<&'a str> {
    prefixes.iter().find_map(|p| s.strip_prefix(p))
}

fn split_once_any_with_sep<'a, 'b>(
    s: &'a str,
    seps: &[&'b str],
) -> Option<(&'a str, &'b str, &'a str)> {
    let mut best: Option<(usize, &'b str)> = None;
    for sep in seps {
        if let Some(pos) = s.find(sep) {
            if best.is_none_or(|(p, _)| pos < p) {
                best = Some((pos, sep));
            }
        }
    }
    best.map(|(pos, sep)| (&s[..pos], sep, &s[pos + sep.len()..]))
}

fn split_once_any<'a>(s: &'a str, seps: &[&str]) -> Option<(&'a str, &'a str)> {
    // Earliest separator occurrence wins.
    let mut best: Option<(usize, &str)> = None;
    for sep in seps {
        if let Some(pos) = s.find(sep) {
            if best.is_none_or(|(p, _)| pos < p) {
                best = Some((pos, sep));
            }
        }
    }
    best.map(|(pos, sep)| (&s[..pos], &s[pos + sep.len()..]))
}

/// Matches "which/what <entity> had/has the most <things>".
fn which_most(q: &str) -> Option<(&str, &str)> {
    let rest = strip_prefixes(q, &["which ", "what "])?;
    let (entity, tail) = split_once_any(rest, &[" had the most ", " has the most ", " have the most ", " with the most "])?;
    Some((entity, tail))
}

/// Matches superlative field questions: "which company had the highest
/// revenue ...", "the fastest growing companies ...", "lowest eps".
/// Returns `(field mention, optional filter clause, k, descending)`.
fn superlative(q: &str) -> Option<(&str, Option<&str>, usize, bool)> {
    for (cue, desc) in [
        ("highest ", true),
        ("largest ", true),
        ("biggest ", true),
        ("lowest ", false),
        ("smallest ", false),
        ("worst ", false),
        ("best ", true),
    ] {
        if let Some(pos) = q.find(cue) {
            let rest = &q[pos + cue.len()..];
            let (field, clause) = split_once_any(rest, &[" in ", " among ", " for ", " of "])
                .map(|(f, c)| (f, Some(c)))
                .unwrap_or((rest, None));
            return Some((field, clause, 1, desc));
        }
    }
    // "fastest growing companies [in the X market/sector]".
    if let Some(pos) = q.find("fastest growing") {
        let rest = &q[pos..];
        let clause = split_once_any(rest, &[" in the ", " in "]).map(|(_, c)| c);
        return Some(("growth", clause, 5, true));
    }
    None
}

/// The TaskEngine adapter: makes the rule planner the simulated LLM's
/// `plan`-task brain.
pub struct PlannerEngine {
    planner: RulePlanner,
}

impl PlannerEngine {
    pub fn new(planner: RulePlanner) -> PlannerEngine {
        PlannerEngine { planner }
    }
}

impl TaskEngine for PlannerEngine {
    fn kind(&self) -> TaskKind {
        TaskKind::Plan
    }

    fn run(&self, task: &ParsedTask, _ctx: &EngineCtx<'_>) -> Option<String> {
        let question = task.params.get("question").and_then(Value::as_str)?;
        let plan = self.planner.plan_question(question);
        Some(json::to_string_pretty(&plan.to_value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::obj;
    use aryn_index::DocStore;

    fn schemas() -> Vec<IndexSchema> {
        let mut ntsb = DocStore::new();
        let mut d = aryn_core::Document::new("n1");
        d.properties = obj! {
            "us_state_abbrev" => "AK", "year" => 2019i64, "cause_category" => "environmental",
            "cause_detail" => "wind", "fatal" => 0i64, "weather_related" => true,
        };
        ntsb.try_put(d).unwrap();
        let mut earn = DocStore::new();
        let mut d = aryn_core::Document::new("e1");
        d.properties = obj! {
            "company" => "Apex Robotics", "sector" => "AI", "growth_pct" => 12.0,
            "revenue_musd" => 100.0, "ceo_changed" => true, "guidance" => "raised",
            "sentiment" => "positive", "year" => 2024i64,
        };
        earn.try_put(d).unwrap();
        vec![
            IndexSchema::discover("ntsb", ntsb.len(), ntsb.schema()),
            IndexSchema::discover("earnings", earn.len(), earn.schema()),
        ]
    }

    fn planner() -> RulePlanner {
        RulePlanner::new(schemas())
    }

    #[test]
    fn figure5_question_produces_figure5_shape() {
        let p = planner().plan_question("What percent of environmentally caused incidents were due to wind?");
        p.validate().unwrap();
        let kinds: Vec<&str> = p.nodes.iter().map(|n| n.op.kind()).collect();
        assert_eq!(
            kinds,
            vec!["queryDatabase", "llmFilter", "count", "llmFilter", "count", "math"]
        );
        // Both filters read the same scan (shared DAG input).
        assert_eq!(p.nodes[1].inputs, vec![0]);
        assert_eq!(p.nodes[3].inputs, vec![0]);
        match &p.nodes[5].op {
            PlanOp::Math { expr } => assert!(expr.contains("100 *"), "{expr}"),
            other => panic!("expected math, got {other:?}"),
        }
        // Predicates carry the right semantics.
        match &p.nodes[1].op {
            PlanOp::LlmFilter { predicate, .. } => assert!(predicate.contains("environmental")),
            _ => panic!(),
        }
        match &p.nodes[3].op {
            PlanOp::LlmFilter { predicate, .. } => assert!(predicate.contains("wind")),
            _ => panic!(),
        }
    }

    #[test]
    fn how_many_with_filters() {
        let p = planner().plan_question("How many incidents were caused by engine failure in 2019?");
        p.validate().unwrap();
        let kinds: Vec<&str> = p.nodes.iter().map(|n| n.op.kind()).collect();
        assert!(kinds.contains(&"llmFilter"));
        assert!(kinds.contains(&"rangeFilter"), "{kinds:?}");
        assert_eq!(*kinds.last().unwrap(), "count");
    }

    #[test]
    fn average_resolves_field_via_schema() {
        let p = planner().plan_question("What was the average revenue growth of companies in the AI sector?");
        p.validate().unwrap();
        let agg = p
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                PlanOp::Aggregate { func, path, .. } => Some((func.clone(), path.clone())),
                _ => None,
            })
            .expect("aggregate node");
        assert_eq!(agg.0, "avg");
        assert_eq!(agg.1, "growth_pct");
        assert!(p.nodes.iter().any(|n| matches!(&n.op, PlanOp::LlmFilter { predicate, .. } if predicate.contains("AI"))));
    }

    #[test]
    fn superlative_topk() {
        let p = planner().plan_question("Which company had the highest revenue in 2024?");
        p.validate().unwrap();
        assert!(p.nodes.iter().any(|n| matches!(&n.op, PlanOp::TopK { path, descending: true, k: 1 } if path == "revenue_musd")));
        assert!(matches!(p.node(p.result).unwrap().op, PlanOp::LlmGenerate { .. }));
    }

    #[test]
    fn group_by_most() {
        let p = planner().plan_question("Which state had the most incidents?");
        p.validate().unwrap();
        let agg = p
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                PlanOp::Aggregate { key, func, .. } => Some((key.clone(), func.clone())),
                _ => None,
            })
            .expect("aggregate");
        assert_eq!(agg.0, "us_state_abbrev");
        assert_eq!(agg.1, "count");
    }

    #[test]
    fn list_questions_filter_then_generate() {
        let p = planner().plan_question("List the companies whose CEO recently changed");
        p.validate().unwrap();
        assert!(p.nodes.iter().any(|n| matches!(&n.op, PlanOp::LlmFilter { predicate, .. } if predicate.contains("CEO"))));
        assert!(matches!(p.node(p.result).unwrap().op, PlanOp::LlmGenerate { .. }));
    }

    #[test]
    fn index_routing() {
        let pl = planner();
        let p = pl.plan_question("How many incidents were caused by wind?");
        assert!(matches!(&p.nodes[0].op, PlanOp::QueryDatabase { index, .. } if index == "ntsb"));
        let p = pl.plan_question("How many companies lowered guidance?");
        assert!(matches!(&p.nodes[0].op, PlanOp::QueryDatabase { index, .. } if index == "earnings"));
    }

    #[test]
    fn negation_blind_spot_is_present() {
        // The documented misinterpretation: "no fatalities" plans the same
        // filter as "fatalities".
        let pl = planner();
        let with = pl.plan_question("How many incidents involved fatalities?");
        let without = pl.plan_question("How many incidents involved no fatalities?");
        assert_eq!(with.nodes.len(), without.nodes.len());
        let pred = |p: &Plan| {
            p.nodes
                .iter()
                .find_map(|n| match &n.op {
                    PlanOp::LlmFilter { predicate, .. } => Some(predicate.clone()),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(pred(&with), pred(&without));
    }

    #[test]
    fn all_generated_plans_validate() {
        let pl = planner();
        for q in [
            "What percent of environmentally caused incidents were due to wind?",
            "How many incidents occurred in Alaska?",
            "What is the total revenue of companies in the software sector?",
            "Which company had the lowest eps?",
            "List incidents caused by icing in Montana",
            "Summarize the incidents in 2021",
            "what happened in texas",
            "fastest growing companies in the AI market",
        ] {
            let p = pl.plan_question(q);
            p.validate().unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn engine_adapter_produces_parseable_json() {
        use aryn_llm::prompt::{parse_prompt, tasks};
        let engine = PlannerEngine::new(planner());
        let prompt = tasks::plan(
            "How many incidents were caused by wind?",
            &Value::object(),
            &PlanOp::KINDS,
        );
        let _task = parse_prompt(&prompt).unwrap();
        let spec = &aryn_llm::GPT4_SIM;
        let mock = aryn_llm::MockLlm::new(spec, aryn_llm::SimConfig::perfect(1));
        let _ = mock; // EngineCtx is constructed internally; call run directly.
        let text = {
            // A minimal EngineCtx stand-in is not constructible here; instead
            // run through the full model path.
            let model = aryn_llm::MockLlm::new(spec, aryn_llm::SimConfig::perfect(1))
                .with_engine(Box::new(PlannerEngine::new(planner())));
            let resp = aryn_llm::LanguageModel::generate(
                &model,
                &aryn_llm::LlmRequest::new(prompt),
            )
            .unwrap();
            resp.text
        };
        let plan = Plan::parse(&text).unwrap();
        assert!(matches!(plan.node(plan.result).unwrap().op, PlanOp::Count));
        let _ = engine;
    }
}

#[cfg(test)]
mod query_time_extract_tests {
    use super::*;
    use crate::schema::IndexSchema;
    use aryn_core::obj;
    use aryn_index::DocStore;

    fn ntsb_schema_fixture() -> Vec<IndexSchema> {
        let mut ntsb = DocStore::new();
        let mut d = aryn_core::Document::new("n1");
        // Note: no "phase" field — it must be extracted at query time.
        d.properties = obj! {
            "us_state_abbrev" => "AK", "year" => 2019i64, "cause_category" => "environmental",
        };
        ntsb.try_put(d).unwrap();
        vec![IndexSchema::discover("ntsb", ntsb.len(), ntsb.schema())]
    }

    #[test]
    fn missing_field_triggers_query_time_extraction() {
        // The Figure 5 pattern: "Previously, a system would need an ETL job
        // to extract 'incident root cause,' but with Luna's runtime LLM
        // operations we can extract this information dynamically."
        let planner = RulePlanner::new(ntsb_schema_fixture());
        let p = planner.plan_question("What was the most common phase of incidents?");
        p.validate().unwrap();
        let kinds: Vec<&str> = p.nodes.iter().map(|n| n.op.kind()).collect();
        assert!(kinds.contains(&"llmExtract"), "{kinds:?}");
        // Extraction feeds the aggregate.
        let extract = p
            .nodes
            .iter()
            .find(|n| matches!(&n.op, PlanOp::LlmExtract { field, .. } if field == "phase"))
            .expect("extract node");
        let agg = p
            .nodes
            .iter()
            .find(|n| matches!(&n.op, PlanOp::Aggregate { key, .. } if key == "phase"))
            .expect("aggregate node");
        assert_eq!(agg.inputs, vec![extract.id]);
    }

    #[test]
    fn present_field_skips_extraction() {
        let planner = RulePlanner::new(ntsb_schema_fixture());
        let p = planner.plan_question("What was the most common cause category of incidents?");
        p.validate().unwrap();
        assert!(
            !p.nodes.iter().any(|n| matches!(&n.op, PlanOp::LlmExtract { .. })),
            "schema field should be used directly"
        );
        assert!(p
            .nodes
            .iter()
            .any(|n| matches!(&n.op, PlanOp::Aggregate { key, .. } if key == "cause_category")));
    }
}

#[cfg(test)]
mod year_range_tests {
    use super::*;
    use crate::schema::IndexSchema;
    use aryn_core::obj;
    use aryn_index::DocStore;

    fn schema_with_year() -> Vec<IndexSchema> {
        let mut ntsb = DocStore::new();
        let mut d = aryn_core::Document::new("n1");
        d.properties = obj! { "year" => 2019i64, "cause_detail" => "wind" };
        ntsb.try_put(d).unwrap();
        vec![IndexSchema::discover("ntsb", ntsb.len(), ntsb.schema())]
    }

    fn year_filter(p: &Plan) -> Option<(Option<i64>, Option<i64>)> {
        p.nodes.iter().find_map(|n| match &n.op {
            PlanOp::RangeFilter { path, lo, hi } if path == "year" => Some((
                lo.as_ref().and_then(Value::as_int),
                hi.as_ref().and_then(Value::as_int),
            )),
            _ => None,
        })
    }

    #[test]
    fn year_range_forms() {
        let pl = RulePlanner::new(schema_with_year());
        let p = pl.plan_question("How many incidents occurred between 2018 and 2020?");
        assert_eq!(year_filter(&p), Some((Some(2018), Some(2020))));
        let p = pl.plan_question("How many incidents since 2019?");
        assert_eq!(year_filter(&p), Some((Some(2019), None)));
        let p = pl.plan_question("How many incidents before 2021?");
        assert_eq!(year_filter(&p), Some((None, Some(2020))));
        let p = pl.plan_question("How many incidents in 2019?");
        assert_eq!(year_filter(&p), Some((Some(2019), Some(2019))));
        // Reversed bounds normalize.
        let p = pl.plan_question("How many incidents from 2022 to 2018?");
        assert_eq!(year_filter(&p), Some((Some(2018), Some(2022))));
    }
}
