//! `ask_structured` and `ask_semantic`: `Luna::ask` over two pre-extracted
//! indexes of equal size. They share everything but the index size, which
//! properties the ETL is pretended to have extracted, and the question
//! list — so a change that moves one and not the other is attributable.

use super::{fnv1a, LlmUsage, Size, Verdict, Workload};
use crate::harness::SetupClock;
use crate::trace;
use aryn::aryn_core::{lexicon, Result, Value};
use aryn::aryn_docgen::stream::extracted_document;
use aryn::aryn_docgen::Corpus;
use aryn::aryn_index::DocStore;
use aryn::aryn_llm::semantics::first_number;
use aryn::aryn_llm::SimConfig;
use aryn::luna::{Luna, LunaConfig, PlanOp};
use aryn::sycamore::Context;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Structured,
    Semantic,
}

/// Documents per index. Structured questions cost ≈ 35 µs per document in
/// the queried index, semantic ones one LLM call (≈ 70 µs) per document,
/// so these sizes put every op above 20 ms.
const STRUCTURED_DOCS: usize = 1_500;
const SEMANTIC_DOCS: usize = 400;
const OPS_PER_ROUND: usize = 18;

/// Properties the semantic workload's ETL "did not extract", so the
/// optimizer cannot push the matching predicates down to string matches
/// and the plans keep their per-document LLM nodes.
const UNEXTRACTED_NTSB: &[&str] = &["cause_category", "cause_detail", "weather_related"];
const UNEXTRACTED_EARNINGS: &[&str] = &["sector", "guidance", "ceo_changed", "sentiment"];
/// Sectors whose simulated semantic match agrees with the records on every
/// seed tried (the simulator's text matching confuses the other three).
const SEMANTIC_SECTORS: &[&str] = &["AI", "software", "semiconductors", "healthcare", "fintech"];

/// What the records say the answer is. Stricter than `bench18`'s grader,
/// whose absolute floor of 0.51 would pass an average that is 5 % off: the
/// executor computes these numbers exactly, so they are checked exactly.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The first number in the answer, to float rounding.
    Number(f64),
    /// The answer names one of these (case-insensitive).
    OneOf(Vec<String>),
}

impl Expected {
    pub fn matches(&self, answer: &str) -> bool {
        let a = answer.to_lowercase();
        match self {
            Expected::Number(want) => {
                // A bare number parses with its sign; prose goes through the
                // repo's own extractor.
                let got = a.trim().parse::<f64>().ok().or_else(|| first_number(&a));
                got.is_some_and(|got| (got - want).abs() <= 1e-9 * want.abs().max(1.0))
            }
            Expected::OneOf(options) => options.iter().any(|o| a.contains(&o.to_lowercase())),
        }
    }
}

pub struct Question {
    pub text: String,
    pub expected: Expected,
}

pub struct Ask {
    kind: Kind,
    ctx: Context,
    luna: Luna,
    questions: Vec<Question>,
    /// Documents per index (the scan size of every question).
    docs_per_index: usize,
    /// Answer of the op that just ran.
    last_answer: String,
    /// Per question: does the optimized plan hold a per-document LLM node?
    semantic_plan: Vec<Option<bool>>,
}

fn sval(r: &Value, k: &str) -> String {
    r.get(k).and_then(Value::as_str).unwrap_or("").to_string()
}

fn fval(r: &Value, k: &str) -> f64 {
    r.get(k).and_then(Value::as_float).unwrap_or(0.0)
}

fn count(c: &Corpus, f: impl Fn(&Value) -> bool) -> f64 {
    c.docs.iter().filter(|d| f(&d.record)).count() as f64
}

/// Values of `field` by descending frequency (ties by name), with counts.
fn by_frequency(c: &Corpus, field: &str) -> Vec<(String, usize)> {
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for d in &c.docs {
        *counts.entry(sval(&d.record, field)).or_default() += 1;
    }
    let mut v: Vec<(String, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Every value tied for most frequent: any of them is a right answer to
/// "which X had the most".
fn most_frequent(c: &Corpus, field: &str) -> Vec<String> {
    let freq = by_frequency(c, field);
    let top = freq.first().map_or(0, |f| f.1);
    freq.into_iter().filter(|f| f.1 == top).map(|f| f.0).collect()
}

fn state_full(abbrev: &str) -> String {
    lexicon::US_STATES
        .iter()
        .find(|(a, _)| *a == abbrev)
        .map_or_else(|| abbrev.to_string(), |(_, full)| (*full).to_string())
}

fn mean(rows: &[&Value], field: &str) -> f64 {
    rows.iter().map(|r| fval(r, field)).sum::<f64>() / rows.len().max(1) as f64
}

fn rows(c: &Corpus, f: impl Fn(&Value) -> bool) -> Vec<&Value> {
    c.docs.iter().map(|d| &d.record).filter(|r| f(r)).collect()
}

/// The most common year of a corpus (so year-restricted questions never
/// face an empty set).
fn busiest_year(c: &Corpus) -> i64 {
    let mut counts: std::collections::BTreeMap<i64, usize> = Default::default();
    for d in &c.docs {
        *counts.entry(d.record.get("year").and_then(Value::as_int).unwrap_or(0)).or_default() += 1;
    }
    counts.into_iter().max_by_key(|(y, n)| (*n, *y)).map_or(0, |(y, _)| y)
}

/// 18 questions whose optimized plan is structured end to end: count,
/// aggregate, facet and top-k shapes from `bench18::build_questions`, with
/// the constants (state, cause, sector, year) drawn from the seeded corpus.
/// Expectations are computed here, from the generating records.
///
/// The mix is 12 NTSB + 6 earnings on purpose. At equal index size an NTSB
/// question costs about twice an earnings question (bigger documents) and
/// the two percent-of questions a quarter more again (two filtered counts).
/// With 6 / 10 / 2 ops in the three cost clusters the median falls inside
/// the middle cluster and the 95th percentile inside the top one; a 9 / 9
/// split put the median on the gap and moved it 13 % between runs.
pub fn structured_questions(ntsb: &Corpus, earnings: &Corpus) -> Vec<Question> {
    let states = by_frequency(ntsb, "us_state_abbrev");
    let details = by_frequency(ntsb, "cause_detail");
    let sectors = by_frequency(earnings, "sector");
    let pick = |v: &[(String, usize)], i: usize| v[i % v.len()].0.clone();
    let n_year = busiest_year(ntsb);
    let mut qs = Vec::new();
    for i in [0, 1, 2] {
        let st = pick(&states, i);
        qs.push(Question {
            text: format!("How many incidents occurred in {}?", state_full(&st)),
            expected: Expected::Number(count(ntsb, |r| sval(r, "us_state_abbrev") == st)),
        });
    }
    for i in [0, 3, 6] {
        let d = pick(&details, i);
        qs.push(Question {
            text: format!("How many incidents were caused by {d}?"),
            expected: Expected::Number(count(ntsb, |r| sval(r, "cause_detail") == d)),
        });
    }
    let d = pick(&details, 1);
    qs.push(Question {
        text: format!("How many incidents were caused by {d} in {n_year}?"),
        expected: Expected::Number(count(ntsb, |r| {
            sval(r, "cause_detail") == d && r.get("year").and_then(Value::as_int) == Some(n_year)
        })),
    });
    qs.push(Question {
        text: "How many incidents involved fatalities?".into(),
        expected: Expected::Number(count(ntsb, |r| fval(r, "fatal") > 0.0)),
    });
    let env = count(ntsb, |r| r.get("weather_related").and_then(Value::as_bool) == Some(true));
    for d in ["wind", "fog"] {
        qs.push(Question {
            text: format!("What percent of environmentally caused incidents were due to {d}?"),
            expected: Expected::Number(100.0 * count(ntsb, |r| sval(r, "cause_detail") == d) / env.max(1.0)),
        });
    }
    qs.push(Question {
        text: "What was the average fatal injuries per incident?".into(),
        expected: Expected::Number(
            ntsb.docs.iter().map(|d| fval(&d.record, "fatal")).sum::<f64>() / ntsb.docs.len() as f64,
        ),
    });
    let mut top_states = most_frequent(ntsb, "us_state_abbrev");
    let full: Vec<String> = top_states.iter().map(|s| state_full(s)).collect();
    top_states.extend(full);
    qs.push(Question { text: "Which state had the most incidents?".into(), expected: Expected::OneOf(top_states) });

    for g in ["lowered", "raised"] {
        qs.push(Question {
            text: format!("How many companies {g} their guidance?"),
            expected: Expected::Number(count(earnings, |r| sval(r, "guidance") == g)),
        });
    }
    let s = pick(&sectors, 0);
    qs.push(Question {
        text: format!("What was the average revenue growth of companies in the {s} sector?"),
        expected: Expected::Number(mean(&rows(earnings, |r| sval(r, "sector") == s), "growth_pct")),
    });
    let s = pick(&sectors, 1);
    qs.push(Question {
        text: format!("What was the total revenue of companies in the {s} sector?"),
        expected: Expected::Number(
            rows(earnings, |r| sval(r, "sector") == s).iter().map(|r| fval(r, "revenue_musd")).sum(),
        ),
    });
    qs.push(Question {
        text: "Which sector had the most companies?".into(),
        expected: Expected::OneOf(most_frequent(earnings, "sector")),
    });
    qs.push(Question {
        text: "What was the average eps of companies that lowered guidance?".into(),
        expected: Expected::Number(mean(&rows(earnings, |r| sval(r, "guidance") == "lowered"), "eps")),
    });
    qs
}

/// 18 questions that keep a per-document LLM node (`llmFilter`,
/// `llmExtract` or a summarize) after optimization, because the property
/// they need was not extracted at ETL time. Each scans its whole index
/// once with the LLM, so the ops are one cost class.
pub fn semantic_questions(ntsb: &Corpus, earnings: &Corpus) -> Vec<Question> {
    let mut qs = Vec::new();
    for d in ["wind", "fog", "icing", "thunderstorm", "turbulence", "snow"] {
        qs.push(Question {
            text: format!("How many incidents were caused by {d}?"),
            expected: Expected::Number(count(ntsb, |r| sval(r, "cause_detail") == d)),
        });
    }
    qs.push(Question {
        text: "How many companies had a negative outlook?".into(),
        expected: Expected::Number(count(earnings, |r| sval(r, "sentiment") == "negative")),
    });
    // A small corpus may lack a sector; ask only about those present, and
    // top the list up with counts so a round is always 18 ops.
    let present: Vec<&str> = SEMANTIC_SECTORS
        .iter()
        .copied()
        .filter(|s| earnings.docs.iter().any(|d| sval(&d.record, "sector") == *s))
        .collect();
    for s in &present {
        qs.push(Question {
            text: format!("What was the average revenue growth of companies in the {s} sector?"),
            expected: Expected::Number(mean(&rows(earnings, |r| sval(r, "sector") == *s), "growth_pct")),
        });
        qs.push(Question {
            text: format!("What was the total revenue of companies in the {s} sector?"),
            expected: Expected::Number(
                rows(earnings, |r| sval(r, "sector") == *s).iter().map(|r| fval(r, "revenue_musd")).sum(),
            ),
        });
    }
    for s in &present {
        qs.push(Question {
            text: format!("How many companies are in the {s} sector?"),
            expected: Expected::Number(count(earnings, |r| sval(r, "sector") == *s)),
        });
    }
    qs.truncate(OPS_PER_ROUND);
    qs
}

fn is_per_document_llm(op: &PlanOp) -> bool {
    matches!(op, PlanOp::LlmFilter { .. } | PlanOp::LlmExtract { .. } | PlanOp::SummarizeData { .. })
}

impl Ask {
    pub fn setup(kind: Kind, seed: u64, size: Size, clock: &mut SetupClock) -> Result<Ask> {
        let n = size.of(match kind {
            Kind::Structured => STRUCTURED_DOCS,
            Kind::Semantic => SEMANTIC_DOCS,
        });
        let (ntsb, earnings) = clock.phase(|| (Corpus::ntsb(seed, n), Corpus::earnings(seed, n)));
        let ctx = Context::new();
        clock.phase(|| {
            for (name, corpus, unextracted) in
                [("ntsb", &ntsb, UNEXTRACTED_NTSB), ("earnings", &earnings, UNEXTRACTED_EARNINGS)]
            {
                let store: DocStore = corpus
                    .docs
                    .iter()
                    .map(|d| {
                        let mut doc = extracted_document(d);
                        if kind == Kind::Semantic {
                            if let Some(props) = doc.properties.as_object_mut() {
                                for k in unextracted {
                                    props.remove(*k);
                                }
                            }
                        }
                        doc
                    })
                    .collect();
                ctx.put_store(name, store);
            }
        });
        // The simulated models' error injection is off for the semantic
        // questions: with it on, a 300-document llmFilter miscounts a rare
        // cause by several hundred percent, no oracle can grade the answer,
        // and accuracy becomes a property of the seed instead of the code.
        let sim = match kind {
            Kind::Structured => SimConfig::default(),
            Kind::Semantic => SimConfig::perfect(seed),
        };
        let luna = clock
            .phase(|| Luna::new(ctx.clone(), &["ntsb", "earnings"], LunaConfig { sim, ..LunaConfig::default() }))?;
        let questions = match kind {
            Kind::Structured => structured_questions(&ntsb, &earnings),
            Kind::Semantic => semantic_questions(&ntsb, &earnings),
        };
        let semantic_plan = vec![None; questions.len()];
        Ok(Ask { kind, ctx, luna, questions, docs_per_index: n, last_answer: String::new(), semantic_plan })
    }
}

impl Workload for Ask {
    fn ops_per_round(&self) -> usize {
        self.questions.len()
    }

    fn begin_round(&mut self) -> Result<()> {
        Ok(())
    }

    fn run_op(&mut self, op: usize, traced: bool) -> Result<()> {
        let q = &self.questions[op].text;
        if !traced {
            let answer = self.luna.ask(q)?;
            if self.semantic_plan[op].is_none() {
                self.semantic_plan[op] = Some(answer.optimized_plan.nodes.iter().any(|n| is_per_document_llm(&n.op)));
            }
            self.last_answer = answer.answer().to_string();
            return Ok(());
        }
        // `Luna::ask` as its public steps. `ask` also copies the spans the
        // question recorded into its answer; the snapshot stands in for it.
        let plan = trace::in_span("luna.plan", 1, || self.luna.plan(q))?;
        let optimized = trace::in_span("luna.optimize", 1, || self.luna.optimize(&plan))?;
        let result = trace::in_span("luna.execute", self.docs_per_index as u64, || self.luna.execute(&optimized.plan))?;
        let spans = trace::in_span("telemetry.snapshot", 1, || self.luna.telemetry().snapshot().spans.len());
        std::hint::black_box(spans);
        self.last_answer = result.answer;
        Ok(())
    }

    fn check_op(&mut self, op: usize) -> Verdict {
        let ok = self.questions[op].expected.matches(&self.last_answer);
        let q = &self.questions[op];
        let why =
            (!ok).then(|| format!("{:?} answered {:?}, the records say {:?}", q.text, self.last_answer, q.expected));
        Verdict { matched: u64::from(ok), checked: 1, fingerprint: fnv1a(0, self.last_answer.as_bytes()), why }
    }

    fn after_round(&mut self) {
        // `Luna::ask` clones every span recorded since the context was
        // created, so an undrained session slows down question by question
        // (visible as `luna.session_drift_ratio`). An exporter would drain.
        self.ctx.telemetry().take();
    }

    fn shape_ok(&self) -> std::result::Result<(), String> {
        let want = self.kind == Kind::Semantic;
        for (q, semantic) in self.questions.iter().zip(&self.semantic_plan) {
            match semantic {
                Some(s) if *s == want => {}
                Some(_) => {
                    return Err(format!(
                        "{:?}: optimized plan {} a per-document LLM node",
                        q.text,
                        if want { "lacks" } else { "has" }
                    ))
                }
                None => return Err(format!("{:?}: never planned", q.text)),
            }
        }
        Ok(())
    }

    fn llm_usage(&self) -> LlmUsage {
        let s = self.luna.usage_stats();
        LlmUsage {
            calls: s.calls,
            tokens: (s.usage.input_tokens + s.usage.output_tokens) as u64,
            usd: s.usage.cost_usd,
        }
    }

    fn telemetry_spans(&self) -> usize {
        self.ctx.telemetry().span_count()
    }
}
