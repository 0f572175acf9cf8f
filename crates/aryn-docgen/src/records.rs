//! Ground-truth records behind the synthetic corpora.
//!
//! Each record is the *fact of the matter* for one document. The generators
//! render records into prose, tables, and page layouts; evaluation harnesses
//! grade extraction and query answers against the records. Library code
//! downstream of rendering never reads them (the no-oracle-leakage rule,
//! DESIGN.md §5).

use aryn_core::{lexicon, obj, stable_hash, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground truth for one NTSB aviation accident report.
#[derive(Debug, Clone, PartialEq)]
pub struct NtsbRecord {
    pub id: String,
    pub year: u32,
    pub month: u32,
    pub day: u32,
    pub city: String,
    pub state: String,
    pub make: String,
    pub model: String,
    pub registration: String,
    pub phase: String,
    pub cause_category: String,
    pub cause_detail: String,
    pub fatal: u32,
    pub serious: u32,
    pub minor: u32,
    pub uninjured: u32,
    pub pilot: String,
    pub has_image: bool,
    /// Per-record style seed for prose variation.
    pub style_seed: u64,
}

impl NtsbRecord {
    pub fn weather_related(&self) -> bool {
        self.cause_category == "environmental"
    }

    pub fn occupants(&self) -> u32 {
        self.fatal + self.serious + self.minor + self.uninjured
    }

    fn date_iso(&self) -> String {
        format!("{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }

    /// The record as a JSON object, for grading and schema inference.
    pub fn to_value(&self) -> Value {
        obj! {
            "id" => self.id.as_str(),
            "date" => self.date_iso(),
            "year" => self.year as i64,
            "city" => self.city.as_str(),
            "us_state_abbrev" => self.state.as_str(),
            "aircraft_make" => self.make.as_str(),
            "aircraft_model" => format!("{} {}", self.make, self.model),
            "registration" => self.registration.as_str(),
            "phase" => self.phase.as_str(),
            "cause_category" => self.cause_category.as_str(),
            "cause_detail" => self.cause_detail.as_str(),
            "weather_related" => self.weather_related(),
            "fatal" => self.fatal as i64,
            "serious" => self.serious as i64,
            "minor" => self.minor as i64,
            "uninjured" => self.uninjured as i64,
            "pilot" => self.pilot.as_str(),
        }
    }

    /// Generates the `i`-th record deterministically from `seed`.
    pub fn generate(seed: u64, i: usize) -> NtsbRecord {
        let mut rng = StdRng::seed_from_u64(stable_hash(seed, &["ntsb", &i.to_string()]));
        let (city, state) = lexicon::CITIES[rng.gen_range(0..lexicon::CITIES.len())];
        let (make, models) = lexicon::AIRCRAFT[rng.gen_range(0..lexicon::AIRCRAFT.len())];
        let model = models[rng.gen_range(0..models.len())];
        let (cat, details) = lexicon::CAUSES[rng.gen_range(0..lexicon::CAUSES.len())];
        let detail = details[rng.gen_range(0..details.len())];
        let phase = lexicon::FLIGHT_PHASES[rng.gen_range(0..lexicon::FLIGHT_PHASES.len())];
        let severity = rng.gen_range(0..10);
        let (fatal, serious, minor) = match severity {
            0 => (rng.gen_range(1..3), 0, 0),
            1 | 2 => (0, rng.gen_range(1..3), rng.gen_range(0..2)),
            3 | 4 => (0, 0, rng.gen_range(1..3)),
            _ => (0, 0, 0),
        };
        let aboard = (fatal + serious + minor).max(1) + rng.gen_range(0..3u32);
        let pilot = format!(
            "{} {}",
            lexicon::FIRST_NAMES[rng.gen_range(0..lexicon::FIRST_NAMES.len())],
            lexicon::LAST_NAMES[rng.gen_range(0..lexicon::LAST_NAMES.len())]
        );
        let month = rng.gen_range(1..13u32);
        NtsbRecord {
            id: format!("ntsb-{i:05}"),
            year: rng.gen_range(2015..2025),
            month,
            day: rng.gen_range(1..29),
            city: city.to_string(),
            state: state.to_string(),
            make: make.to_string(),
            model: model.to_string(),
            registration: format!("N{}{}", rng.gen_range(100..9999), (b'A' + rng.gen_range(0..26u8)) as char),
            phase: phase.to_string(),
            cause_category: cat.to_string(),
            cause_detail: detail.to_string(),
            fatal,
            serious,
            minor,
            uninjured: aboard - (fatal + serious + minor),
            pilot,
            has_image: rng.gen_bool(0.4),
            style_seed: rng.gen(),
        }
    }
}

/// Ground truth for one quarterly earnings report.
#[derive(Debug, Clone, PartialEq)]
pub struct EarningsRecord {
    pub id: String,
    pub company: String,
    pub ticker: String,
    pub sector: String,
    pub quarter: u32,
    pub year: u32,
    pub revenue_musd: f64,
    /// Year-over-year revenue growth, percent (negative = decline).
    pub growth_pct: f64,
    pub eps: f64,
    /// "raised" | "maintained" | "lowered"
    pub guidance: String,
    pub ceo: String,
    pub prior_ceo: String,
    pub ceo_changed: bool,
    pub style_seed: u64,
}

impl EarningsRecord {
    /// Sentiment implied by the numbers — what a reader would conclude.
    pub fn sentiment(&self) -> &'static str {
        if self.growth_pct > 5.0 && self.guidance != "lowered" {
            "positive"
        } else if self.growth_pct < 0.0 || self.guidance == "lowered" {
            "negative"
        } else {
            "neutral"
        }
    }

    pub fn to_value(&self) -> Value {
        obj! {
            "id" => self.id.as_str(),
            "company" => self.company.as_str(),
            "ticker" => self.ticker.as_str(),
            "sector" => self.sector.as_str(),
            "quarter" => format!("Q{} {}", self.quarter, self.year),
            "year" => self.year as i64,
            "revenue_musd" => self.revenue_musd,
            "growth_pct" => self.growth_pct,
            "eps" => self.eps,
            "guidance" => self.guidance.as_str(),
            "ceo" => self.ceo.as_str(),
            "ceo_changed" => self.ceo_changed,
            "sentiment" => self.sentiment(),
        }
    }

    /// Generates the `i`-th record deterministically from `seed`.
    ///
    /// Companies cycle through the name lexicon, so a corpus larger than the
    /// lexicon contains multiple quarters per company — which is what makes
    /// "yearly revenue growth" questions meaningful.
    pub fn generate(seed: u64, i: usize) -> EarningsRecord {
        let mut rng = StdRng::seed_from_u64(stable_hash(seed, &["earnings", &i.to_string()]));
        let n_companies = lexicon::COMPANY_HEADS.len() * 2;
        let company_ix = i % n_companies;
        let head = lexicon::COMPANY_HEADS[company_ix % lexicon::COMPANY_HEADS.len()];
        let tail = lexicon::COMPANY_TAILS
            [(company_ix / lexicon::COMPANY_HEADS.len() + company_ix) % lexicon::COMPANY_TAILS.len()];
        let company = format!("{head} {tail}");
        // Ticker: deterministic from the company name, 4 uppercase letters.
        let th = stable_hash(0x71c4, &[&company]);
        let ticker: String = (0..4)
            .map(|k| (b'A' + ((th >> (k * 8)) % 26) as u8) as char)
            .collect();
        // Company-stable attributes come from a company-keyed RNG.
        let mut crng = StdRng::seed_from_u64(stable_hash(seed, &["company", &company]));
        let sector = lexicon::SECTORS[crng.gen_range(0..lexicon::SECTORS.len())];
        let base_revenue = crng.gen_range(80.0..2500.0f64);
        let steady_ceo = format!(
            "{} {}",
            lexicon::FIRST_NAMES[crng.gen_range(0..lexicon::FIRST_NAMES.len())],
            lexicon::LAST_NAMES[crng.gen_range(0..lexicon::LAST_NAMES.len())]
        );
        // Per-report attributes.
        let quarter = rng.gen_range(1..5u32);
        let year = rng.gen_range(2022..2025);
        let growth_pct = (rng.gen_range(-15.0..35.0f64) * 10.0).round() / 10.0;
        let revenue = (base_revenue * (1.0 + growth_pct / 100.0) * 10.0).round() / 10.0;
        let eps = ((revenue / crng.gen_range(150.0f64..400.0)) * 100.0).round() / 100.0;
        let guidance = if growth_pct > 12.0 && rng.gen_bool(0.7) {
            "raised"
        } else if growth_pct < -4.0 && rng.gen_bool(0.6) {
            "lowered"
        } else {
            "maintained"
        };
        let ceo_changed = rng.gen_bool(0.25);
        // A replacement CEO must actually be a different person; redraw on
        // the (rare) collision with the incumbent's name.
        let new_ceo = loop {
            let candidate = format!(
                "{} {}",
                lexicon::FIRST_NAMES[rng.gen_range(0..lexicon::FIRST_NAMES.len())],
                lexicon::LAST_NAMES[rng.gen_range(0..lexicon::LAST_NAMES.len())]
            );
            if candidate != steady_ceo {
                break candidate;
            }
        };
        EarningsRecord {
            id: format!("earn-{i:05}"),
            company,
            ticker,
            sector: sector.to_string(),
            quarter,
            year,
            revenue_musd: revenue,
            growth_pct,
            eps,
            guidance: guidance.to_string(),
            ceo: if ceo_changed { new_ceo } else { steady_ceo.clone() },
            prior_ceo: steady_ceo,
            ceo_changed,
            style_seed: rng.gen(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntsb_generation_is_deterministic() {
        assert_eq!(NtsbRecord::generate(1, 0), NtsbRecord::generate(1, 0));
        assert_ne!(NtsbRecord::generate(1, 0), NtsbRecord::generate(1, 1));
        assert_ne!(NtsbRecord::generate(1, 0), NtsbRecord::generate(2, 0));
    }

    #[test]
    fn ntsb_internal_consistency() {
        for i in 0..200 {
            let r = NtsbRecord::generate(42, i);
            assert!(r.occupants() >= 1);
            assert_eq!(
                r.weather_related(),
                r.cause_category == "environmental",
                "{r:?}"
            );
            assert!(aryn_core::lexicon::is_state_abbrev(&r.state));
            assert!((1..29).contains(&r.day));
            // The detail must belong to the category per the lexicon.
            assert_eq!(
                aryn_core::lexicon::cause_category(&r.cause_detail),
                Some(r.cause_category.as_str()),
                "{r:?}"
            );
        }
    }

    #[test]
    fn ntsb_cause_mix_is_diverse() {
        let mut envs = 0;
        let n = 300;
        for i in 0..n {
            if NtsbRecord::generate(7, i).weather_related() {
                envs += 1;
            }
        }
        // Four categories drawn uniformly: expect ~25%.
        assert!((40..110).contains(&envs), "environmental count {envs}");
    }

    #[test]
    fn earnings_company_attributes_are_stable() {
        // Two reports by the same company share sector and ticker.
        let n_companies = lexicon::COMPANY_HEADS.len() * 2;
        let a = EarningsRecord::generate(5, 3);
        let b = EarningsRecord::generate(5, 3 + n_companies);
        assert_eq!(a.company, b.company);
        assert_eq!(a.sector, b.sector);
        assert_eq!(a.ticker, b.ticker);
        assert_ne!((a.quarter, a.year, a.revenue_musd), (b.quarter, b.year, b.revenue_musd));
    }

    #[test]
    fn earnings_sentiment_follows_numbers() {
        for i in 0..200 {
            let r = EarningsRecord::generate(9, i);
            match r.sentiment() {
                "positive" => assert!(r.growth_pct > 5.0 && r.guidance != "lowered"),
                "negative" => assert!(r.growth_pct < 0.0 || r.guidance == "lowered"),
                _ => {}
            }
            if r.ceo_changed {
                assert_ne!(r.ceo, r.prior_ceo);
            } else {
                assert_eq!(r.ceo, r.prior_ceo);
            }
        }
    }

    #[test]
    fn to_value_shapes() {
        let v = NtsbRecord::generate(1, 4).to_value();
        assert!(v.get("us_state_abbrev").is_some());
        assert!(v.get("weather_related").unwrap().as_bool().is_some());
        let v = EarningsRecord::generate(1, 4).to_value();
        assert!(v.get("quarter").unwrap().as_str().unwrap().starts_with('Q'));
    }
}
