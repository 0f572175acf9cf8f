//! E11 — optimizer ablation: "The plan optimizer makes trade-offs based on
//! cost vs efficiency ... what technique (string matching vs semantic
//! matching), and tool (e.g., GPT-4 versus Llama 7B) to use" (§6.1).
//!
//! Runs the 18-question suite under optimizer variants and reports accuracy,
//! LLM calls, simulated dollars, and simulated latency.
//!
//! Run with: `cargo bench -p bench --bench luna_optimizer`

use aryn::luna::bench18::{grade_answer, Bench18, Bench18Cfg, Grade};
use aryn::luna::OptimizerCfg;

struct Variant {
    name: &'static str,
    cfg: OptimizerCfg,
}

fn main() {
    println!("E11: Luna optimizer ablation on the 18-question suite\n");
    let variants = [
        Variant {
            name: "no optimizer",
            cfg: OptimizerCfg {
                pushdown: false,
                reorder: false,
                batch_filters: false,
                model_selection: false,
                min_accuracy: 0.85,
                ..OptimizerCfg::default()
            },
        },
        Variant {
            name: "pushdown + batch",
            cfg: OptimizerCfg {
                pushdown: true,
                reorder: true,
                batch_filters: true,
                model_selection: false,
                min_accuracy: 0.85,
                ..OptimizerCfg::default()
            },
        },
        Variant {
            name: "full (strict bar)",
            cfg: OptimizerCfg::default(),
        },
        Variant {
            name: "full (cheap bar)",
            cfg: OptimizerCfg {
                min_accuracy: 0.68,
                ..OptimizerCfg::default()
            },
        },
    ];
    let fixture = Bench18::build(Bench18Cfg::default()).expect("fixture");
    let knobs = fixture.luna.cost_knobs();
    println!(
        "{:<20} {:>9} {:>11} {:>10} {:>11} {:>12}",
        "variant", "correct", "plausible", "incorrect", "llm calls", "cost (usd)"
    );
    for v in variants {
        let mut c = 0usize;
        let mut p = 0usize;
        let mut i = 0usize;
        let mut llm_calls = 0u64;
        let mut cost = 0.0f64;
        for q in &fixture.questions {
            let Ok(plan) = fixture.luna.plan(&q.question) else {
                i += 1;
                continue;
            };
            let optimized =
                aryn::luna::optimize(&plan, fixture.luna.schemas(), &v.cfg, &knobs).unwrap();
            match fixture.luna.execute(&optimized.plan) {
                Ok(result) => {
                    llm_calls += result.llm().calls;
                    cost += result.llm().usage.cost_usd;
                    match grade_answer(&result.answer, &q.expected) {
                        Grade::Correct => c += 1,
                        Grade::Plausible => p += 1,
                        Grade::Incorrect => i += 1,
                    }
                }
                Err(_) => i += 1,
            }
        }
        println!(
            "{:<20} {:>9} {:>11} {:>10} {:>11} {:>12.4}",
            v.name, c, p, i, llm_calls, cost
        );
    }
    println!(
        "\nexpected shape: pushdown removes most per-row LLM calls (cheaper AND\n\
         more accurate than semantic filtering over extracted fields); the\n\
         cheap-model bar lowers cost further at some accuracy risk."
    );
}
