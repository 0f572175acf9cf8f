//! Earnings-report rendering: record → press-release-style pages.
//!
//! Mirrors the financial-analyst use case from the paper's §1/§2: quarterly
//! results with a headline, highlights list, financial-results table, outlook
//! prose carrying sentiment cues, and executive-change announcements.

use crate::layout::{Block, GroundTruth, LayoutEngine, RawDocument};
use crate::records::EarningsRecord;
use aryn_core::{stable_hash, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The content blocks for one earnings report.
pub fn blocks(r: &EarningsRecord) -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(stable_hash(r.style_seed, &["earnings-prose", &r.id]));
    let q = format!("Q{} {}", r.quarter, r.year);
    let dir_word = if r.growth_pct >= 0.0 { "grew" } else { "declined" };
    let g_abs = r.growth_pct.abs();

    let mut blocks = vec![Block::title(format!(
        "{} ({}) Reports {} Financial Results",
        r.company, r.ticker, q
    ))];

    let headline = match rng.gen_range(0..3) {
        0 => format!(
            "{} ({}) today reported financial results for {q}. Revenue was ${:.1} million, and \
             revenue {dir_word} {g_abs:.1}% year over year. Earnings came in at ${:.2} per share.",
            r.company, r.ticker, r.revenue_musd, r.eps
        ),
        1 => format!(
            "{} ({}) announced its {q} results today. The company posted revenue of ${:.1} \
             million; revenue {dir_word} {g_abs:.1}% compared with the prior year. Diluted \
             earnings per share were ${:.2} per share.",
            r.company, r.ticker, r.revenue_musd, r.eps
        ),
        _ => format!(
            "For {q}, {} ({}) generated revenue of ${:.1} million, which {dir_word} {g_abs:.1}% \
             from a year ago, with earnings of ${:.2} per share.",
            r.company, r.ticker, r.revenue_musd, r.eps
        ),
    };
    blocks.push(Block::text(headline));

    // Highlights list.
    blocks.push(Block::section("Financial Highlights"));
    blocks.push(Block::list_item(format!("Revenue: ${:.1} million", r.revenue_musd)));
    blocks.push(Block::list_item(format!(
        "Revenue {dir_word} {g_abs:.1}% year over year"
    )));
    blocks.push(Block::list_item(format!("EPS: ${:.2} per share", r.eps)));
    blocks.push(Block::list_item(format!("Full-year guidance {}", r.guidance)));

    // Financial results table.
    blocks.push(Block::section("Results of Operations"));
    let prior_rev = r.revenue_musd / (1.0 + r.growth_pct / 100.0);
    let mut fin = Table::from_grid(
        &[
            vec!["Metric".into(), q.clone(), "Prior Year".into()],
            vec![
                "Revenue ($M)".into(),
                format!("{:.1}", r.revenue_musd),
                format!("{:.1}", prior_rev),
            ],
            vec!["EPS ($)".into(), format!("{:.2}", r.eps), format!("{:.2}", r.eps * 0.9)],
            vec!["YoY Growth (%)".into(), format!("{:.1}", r.growth_pct), "-".into()],
        ],
        true,
    );
    fin.caption = Some("Results of Operations".into());
    blocks.push(Block::TableBlock { table: fin });

    // Outlook with sentiment cues the record's numbers imply.
    blocks.push(Block::section("Business Outlook"));
    let outlook = match r.sentiment() {
        "positive" => {
            let cues = [
                format!(
                    "Demand in the {} sector remained strong, with record bookings and robust \
                     momentum entering next quarter.",
                    r.sector
                ),
                format!(
                    "The company exceeded expectations on strong {} demand and raised its \
                     outlook, citing continued growth momentum.",
                    r.sector
                ),
            ];
            cues[rng.gen_range(0..cues.len())].clone()
        }
        "negative" => {
            let cues = [
                format!(
                    "Management struck a cautious tone, citing macro headwinds and a slowdown \
                     in {} spending; guidance was {}.",
                    r.sector, r.guidance
                ),
                format!(
                    "Results missed internal targets amid weak demand in the {} sector, and \
                     the company lowered near-term expectations, a disappointing shortfall.",
                    r.sector
                ),
            ];
            cues[rng.gen_range(0..cues.len())].clone()
        }
        _ => format!(
            "The company maintained its full-year outlook for the {} sector, describing demand \
             as stable.",
            r.sector
        ),
    };
    blocks.push(Block::text(outlook));

    // Executive commentary / CEO change.
    blocks.push(Block::section("Management Commentary"));
    if r.ceo_changed {
        blocks.push(Block::text(format!(
            "The board appointed {} as the new CEO effective this quarter, succeeding {}, who \
             stepped down after leading the company. \"We are focused on execution,\" said {}.",
            r.ceo, r.prior_ceo, r.ceo
        )));
    } else {
        blocks.push(Block::text(format!(
            "\"Our teams executed well this quarter,\" said {}, chief executive officer of {}.",
            r.ceo, r.company
        )));
    }
    blocks.push(Block::footnote(format!(
        "Source: {} {q} earnings release ({}). Figures unaudited.",
        r.company, r.id
    )));
    blocks
}

/// Renders the record to pages plus ground truth.
pub fn render(r: &EarningsRecord) -> (RawDocument, GroundTruth) {
    let engine = LayoutEngine {
        header: Some(format!("{} Investor Relations", r.company)),
        footer: Some(format!("{} — Page {{page}}", r.ticker)),
    };
    engine.layout(&blocks(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::EarningsRecord;

    #[test]
    fn rendered_text_supports_extraction() {
        let mut company_ok = 0;
        let mut rev_ok = 0;
        let mut growth_ok = 0;
        let mut ceo_flag_ok = 0;
        let mut sentiment_ok = 0;
        let n = 60;
        for i in 0..n {
            let r = EarningsRecord::generate(13, i);
            let (doc, _) = render(&r);
            let full_text = doc.full_text();
            let text = aryn_llm::semantics::Reading::new(&full_text);
            if aryn_llm::semantics::find_company(&text).as_deref() == Some(r.company.as_str()) {
                company_ok += 1;
            }
            if let Some(m) = aryn_llm::semantics::find_money(&text, &["revenue"]) {
                if (m - r.revenue_musd).abs() < 0.2 {
                    rev_ok += 1;
                }
            }
            if let Some(g) =
                aryn_llm::semantics::find_percent(&text, &["grew", "growth", "decline", "decreased"])
            {
                if (g - r.growth_pct).abs() < 0.2 {
                    growth_ok += 1;
                }
            }
            if aryn_llm::semantics::ceo_changed(&text) == r.ceo_changed {
                ceo_flag_ok += 1;
            }
            if aryn_llm::semantics::sentiment(&text) == r.sentiment() {
                sentiment_ok += 1;
            }
        }
        assert!(company_ok >= n - 2, "company {company_ok}/{n}");
        assert!(rev_ok >= n * 9 / 10, "revenue {rev_ok}/{n}");
        assert!(growth_ok >= n * 8 / 10, "growth {growth_ok}/{n}");
        assert!(ceo_flag_ok >= n * 9 / 10, "ceo flag {ceo_flag_ok}/{n}");
        assert!(sentiment_ok >= n * 7 / 10, "sentiment {sentiment_ok}/{n}");
    }

    #[test]
    fn results_table_is_consistent_with_record() {
        let r = EarningsRecord::generate(4, 9);
        let (_, gt) = render(&r);
        let table = gt
            .boxes
            .iter()
            .find_map(|b| b.table.as_ref().filter(|t| t.caption.as_deref() == Some("Results of Operations")))
            .unwrap();
        let q_col_header = &table.headers()[1];
        assert!(q_col_header.starts_with('Q'));
        let revenue_row = &table.records()[0];
        let v = revenue_row.get(q_col_header).unwrap().as_float().unwrap();
        assert!((v - r.revenue_musd).abs() < 0.06);
    }

    #[test]
    fn ceo_change_text_only_when_changed() {
        let mut saw_changed = false;
        let mut saw_steady = false;
        for i in 0..40 {
            let r = EarningsRecord::generate(21, i);
            let text = render(&r).0.full_text();
            if r.ceo_changed {
                assert!(text.contains("succeeding"), "{}", r.id);
                saw_changed = true;
            } else {
                assert!(!text.contains("succeeding"), "{}", r.id);
                saw_steady = true;
            }
        }
        assert!(saw_changed && saw_steady);
    }

    #[test]
    fn ticker_in_header_and_text() {
        let r = EarningsRecord::generate(2, 0);
        let text = render(&r).0.full_text();
        assert!(text.contains(&format!("({})", r.ticker)));
        let reading = aryn_llm::semantics::Reading::new(&text);
        assert_eq!(aryn_llm::semantics::find_ticker(&reading), Some(r.ticker.clone()));
    }
}
