//! NTSB accident-report rendering: record → prose, tables, images → pages.
//!
//! The generated reports mirror the structure of real NTSB final reports
//! (the paper's Figure 2 document): title, location/date preamble, an
//! Analysis narrative, a Probable Cause section, Findings list, an injuries
//! table (split across pages when long), aircraft information table, and an
//! optional wreckage photograph. Prose varies by a per-record style seed so
//! extraction cannot overfit a single template.

use crate::layout::{Block, GroundTruth, LayoutEngine, RawDocument};
use crate::records::NtsbRecord;
use aryn_core::{stable_hash, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MONTH_NAMES: [&str; 12] = [
    "January", "February", "March", "April", "May", "June", "July", "August", "September",
    "October", "November", "December",
];

/// How a cause detail reads in a probable-cause statement.
fn cause_phrase(detail: &str, rng: &mut StdRng) -> String {
    let templates: &[&str] = match detail {
        "wind" => &[
            "an encounter with gusting wind during the {phase}",
            "a loss of directional control following a sudden wind gust",
        ],
        "fog" => &["continued flight into dense fog", "an encounter with fog that obscured the terrain"],
        "icing" => &["an accumulation of structural icing", "carburetor icing that led to a loss of engine power"],
        "thunderstorm" => &["an inadvertent encounter with a thunderstorm"],
        "turbulence" => &["an encounter with severe turbulence"],
        "snow" => &["whiteout conditions in heavy snow"],
        "engine failure" => &[
            "a total loss of engine power due to an engine failure",
            "an engine failure during the {phase}",
        ],
        "fuel contamination" => &[
            "a partial loss of engine power due to fuel contamination",
            "the pilot's failure to remove all water from the fuel tank, which resulted in fuel contamination",
        ],
        "landing gear failure" => &["a landing gear failure during the {phase}"],
        "control cable failure" => &["a failure of the elevator control cable"],
        "propeller damage" => &["propeller damage sustained from ground debris"],
        "loss of control" => &["the pilot's loss of control during the {phase}"],
        "improper flare" => &["the pilot's improper landing flare"],
        "fuel exhaustion" => &["the pilot's inadequate fuel planning, which resulted in fuel exhaustion"],
        "spatial disorientation" => &["the pilot's spatial disorientation in night conditions"],
        "inadequate preflight" => &["the pilot's inadequate preflight inspection"],
        "bird strike" => &["a bird strike during the {phase}"],
        "runway incursion" => &["a runway incursion by a ground vehicle"],
        "wire strike" => &["a collision with an unmarked power line, a wire strike"],
        _ => &["an undetermined event; the cause is unknown"],
    };
    templates[rng.gen_range(0..templates.len())].to_string()
}

fn injury_sentence(r: &NtsbRecord, rng: &mut StdRng) -> String {
    if r.fatal > 0 {
        let who = if r.fatal == 1 {
            "One occupant was".to_string()
        } else {
            format!("{} occupants were", r.fatal)
        };
        format!("{who} fatally injured.")
    } else if r.serious > 0 {
        let who = if r.serious == 1 {
            "One passenger was".to_string()
        } else {
            format!("{} occupants were", r.serious)
        };
        format!("{who} seriously injured.")
    } else if r.minor > 0 {
        format!("{} aboard received minor injuries.", r.minor)
    } else {
        let variants = [
            "There were no injuries.",
            "The occupants were not injured.",
            "No injuries were reported.",
        ];
        variants[rng.gen_range(0..variants.len())].to_string()
    }
}

/// The content blocks for one report.
pub fn blocks(r: &NtsbRecord) -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(stable_hash(r.style_seed, &["ntsb-prose", &r.id]));
    let month = MONTH_NAMES[(r.month - 1) as usize];
    let phase = &r.phase;
    let cause = cause_phrase(&r.cause_detail, &mut rng).replace("{phase}", phase);

    let mut blocks = vec![Block::title("Aviation Accident Final Report")];

    // Preamble: location, date, aircraft.
    let opening = match rng.gen_range(0..3) {
        0 => format!(
            "The accident occurred on {month} {}, {} near {}, {}. The {} {}, registration {}, \
             was destroyed when it impacted terrain during the {phase}.",
            r.day, r.year, r.city, r.state, r.make, r.model, r.registration
        ),
        1 => format!(
            "On {month} {}, {}, a {} {}, registration {}, was substantially damaged in an \
             accident near {}, {} during the {phase}.",
            r.day, r.year, r.make, r.model, r.registration, r.city, r.state
        ),
        _ => format!(
            "This report concerns the accident involving a {} {} (registration {}) that took \
             place on {month} {}, {} in {}, {} while in the {phase} phase of flight.",
            r.make, r.model, r.registration, r.day, r.year, r.city, r.state
        ),
    };
    blocks.push(Block::text(opening));

    // Analysis narrative.
    blocks.push(Block::section("Analysis"));
    let pilot_clause = match rng.gen_range(0..3) {
        0 => format!("The pilot, {}, reported that", r.pilot),
        1 => "The pilot reported that".to_string(),
        _ => format!("According to the pilot, {},", r.pilot),
    };
    let narrative_core = match r.cause_category.as_str() {
        "environmental" => format!(
            "{pilot_clause} while on the {phase}, the airplane encountered {} conditions. \
             Control became difficult and the airplane descended rapidly.",
            r.cause_detail
        ),
        "mechanical" => format!(
            "{pilot_clause} during the {phase}, the airplane experienced a {}. \
             The pilot attempted to restore power without success.",
            r.cause_detail
        ),
        "pilot error" => format!(
            "{pilot_clause} during the {phase}, he experienced a {}. \
             The airplane subsequently departed controlled flight.",
            r.cause_detail
        ),
        _ => format!(
            "{pilot_clause} during the {phase}, the flight was interrupted by a {}.",
            r.cause_detail
        ),
    };
    blocks.push(Block::text(format!(
        "{narrative_core} The airplane impacted terrain. {}",
        injury_sentence(r, &mut rng)
    )));
    // A distractor paragraph with numbers and a second city (no state
    // abbreviation, so extraction stays solvable but not trivial).
    let distractor_city = if rng.gen_bool(0.5) { "Centerville" } else { "Lakeview" };
    blocks.push(Block::text(format!(
        "The flight departed from {} approximately {} minutes prior to the accident. Visual \
         meteorological conditions prevailed, and no flight plan was filed for the personal \
         flight conducted under 14 CFR Part 91.",
        distractor_city,
        rng.gen_range(15..95)
    )));

    // Injuries table.
    blocks.push(Block::section("Injuries to Persons"));
    let grid = vec![
        vec!["Injuries".into(), "Crew".into(), "Passengers".into(), "Total".into()],
        vec!["Fatal".into(), fmt_split(r.fatal, 0), fmt_split(r.fatal, 1), r.fatal.to_string()],
        vec!["Serious".into(), fmt_split(r.serious, 0), fmt_split(r.serious, 1), r.serious.to_string()],
        vec!["Minor".into(), fmt_split(r.minor, 0), fmt_split(r.minor, 1), r.minor.to_string()],
        vec!["None".into(), fmt_split(r.uninjured, 0), fmt_split(r.uninjured, 1), r.uninjured.to_string()],
    ];
    let mut injuries = Table::from_grid(&grid, true);
    injuries.caption = Some("Injuries to Persons".into());
    blocks.push(Block::TableBlock { table: injuries });

    // Aircraft information table.
    blocks.push(Block::section("Aircraft and Owner/Operator Information"));
    let info = Table::from_grid(
        &[
            vec!["Field".into(), "Value".into()],
            vec!["Aircraft Make".into(), r.make.clone()],
            vec!["Model".into(), r.model.clone()],
            vec!["Registration".into(), r.registration.clone()],
            vec!["Phase of Operation".into(), r.phase.clone()],
        ],
        true,
    );
    blocks.push(Block::TableBlock { table: info });

    // Optional wreckage photograph.
    if r.has_image {
        blocks.push(Block::ImageBlock {
            description: format!(
                "Photograph of the wreckage of the {} {} resting in terrain near {}",
                r.make, r.model, r.city
            ),
            embedded_text: format!("NTSB photo {}", r.id),
            width: 320.0,
            height: 180.0,
        });
        blocks.push(Block::caption(format!(
            "Figure 1: Wreckage of {} at the accident site.",
            r.registration
        )));
    }

    // Probable cause.
    blocks.push(Block::section("Probable Cause and Findings"));
    blocks.push(Block::text(format!(
        "The National Transportation Safety Board determines the probable cause of this \
         accident to be: {cause}."
    )));
    blocks.push(Block::section("Findings"));
    blocks.push(Block::list_item(format!("Cause category: {}", r.cause_category)));
    blocks.push(Block::list_item(format!("Contributing factor: {}", r.cause_detail)));
    blocks.push(Block::footnote(format!(
        "NTSB case number {}. This information is preliminary and subject to change.",
        r.id
    )));
    blocks
}

fn fmt_split(total: u32, slot: u32) -> String {
    // Split a count between crew/passenger columns deterministically.
    let crew = total.min(1);
    let pax = total - crew;
    if slot == 0 { crew.to_string() } else { pax.to_string() }
}

/// Renders the record to pages plus ground truth.
pub fn render(r: &NtsbRecord) -> (RawDocument, GroundTruth) {
    let engine = LayoutEngine {
        header: Some("National Transportation Safety Board".into()),
        footer: Some(format!("{} — Page {{page}}", r.id)),
    };
    engine.layout(&blocks(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::ElementType;

    #[test]
    fn rendering_is_deterministic_and_multi_page_capable() {
        let r = NtsbRecord::generate(1, 0);
        let (a, _) = render(&r);
        let (b, _) = render(&r);
        assert_eq!(a, b);
        assert!(a.pages >= 1);
    }

    #[test]
    fn rendered_text_supports_extraction() {
        // The semantic engine must recover key fields from the rendered text
        // for nearly all records — this pins generator/extractor compatibility.
        let mut state_ok = 0;
        let mut cause_ok = 0;
        let mut weather_ok = 0;
        let n = 60;
        for i in 0..n {
            let r = NtsbRecord::generate(11, i);
            let (doc, _) = render(&r);
            let full_text = doc.full_text();
            let text = aryn_llm::semantics::Reading::new(&full_text);
            if aryn_llm::semantics::find_state(&text).as_deref() == Some(r.state.as_str()) {
                state_ok += 1;
            }
            if aryn_llm::semantics::find_cause(&text).as_deref() == Some(r.cause_detail.as_str()) {
                cause_ok += 1;
            }
            if aryn_llm::semantics::weather_related(&text) == r.weather_related() {
                weather_ok += 1;
            }
        }
        assert!(state_ok >= n - 3, "state extraction {state_ok}/{n}");
        assert!(cause_ok >= n * 8 / 10, "cause extraction {cause_ok}/{n}");
        assert!(weather_ok >= n * 9 / 10, "weather flag {weather_ok}/{n}");
    }

    #[test]
    fn injuries_table_matches_record() {
        let r = NtsbRecord::generate(3, 7);
        let (_, gt) = render(&r);
        let table = gt
            .boxes
            .iter()
            .find_map(|b| b.table.as_ref().filter(|t| t.caption.as_deref() == Some("Injuries to Persons")))
            .expect("injuries table present");
        let total_col = table.column("total");
        let expected = [r.fatal, r.serious, r.minor, r.uninjured];
        for (cell, want) in total_col.iter().zip(expected) {
            assert_eq!(*cell, want.to_string());
        }
    }

    #[test]
    fn ground_truth_covers_report_structure() {
        let r = NtsbRecord::generate(5, 2);
        let (_, gt) = render(&r);
        let has = |t: ElementType| gt.boxes.iter().any(|b| b.etype == t);
        assert!(has(ElementType::Title));
        assert!(has(ElementType::SectionHeader));
        assert!(has(ElementType::Text));
        assert!(has(ElementType::Table));
        assert!(has(ElementType::ListItem));
        assert!(has(ElementType::Footnote));
    }

    #[test]
    fn image_presence_follows_record() {
        let mut with = None;
        let mut without = None;
        for i in 0..40 {
            let r = NtsbRecord::generate(9, i);
            if r.has_image && with.is_none() {
                with = Some(r);
            } else if !r.has_image && without.is_none() {
                without = Some(r);
            }
        }
        let (doc, _) = render(&with.unwrap());
        assert_eq!(doc.images.len(), 1);
        let (doc, _) = render(&without.unwrap());
        assert!(doc.images.is_empty());
    }

    #[test]
    fn prose_varies_across_records() {
        let texts: Vec<String> = (0..6)
            .map(|i| render(&NtsbRecord::generate(2, i)).0.full_text())
            .collect();
        let openings: std::collections::BTreeSet<String> = texts
            .iter()
            .map(|t| t.lines().nth(2).unwrap_or("").chars().take(20).collect())
            .collect();
        assert!(openings.len() >= 2, "templates should vary: {openings:?}");
    }
}
