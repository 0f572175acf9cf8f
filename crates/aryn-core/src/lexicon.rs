//! Shared domain lexicons — "world knowledge".
//!
//! Both the synthetic corpus generator (`aryn-docgen`) and the simulated
//! LLM's semantic engine (`aryn-llm`) know these vocabularies, the same way a
//! real LLM and real document authors share knowledge of US states, aircraft
//! manufacturers, or incident causes. The generator *renders* facts using
//! these terms; the extractor *recognizes* them in rendered text. Neither side
//! sees the other's private state, so extraction can still fail on noisy or
//! ambiguous renderings.

/// US state `(abbreviation, full name)` pairs.
pub const US_STATES: &[(&str, &str)] = &[
    ("AK", "Alaska"),
    ("AL", "Alabama"),
    ("AR", "Arkansas"),
    ("AZ", "Arizona"),
    ("CA", "California"),
    ("CO", "Colorado"),
    ("CT", "Connecticut"),
    ("FL", "Florida"),
    ("GA", "Georgia"),
    ("IA", "Iowa"),
    ("ID", "Idaho"),
    ("IL", "Illinois"),
    ("IN", "Indiana"),
    ("KS", "Kansas"),
    ("KY", "Kentucky"),
    ("LA", "Louisiana"),
    ("MA", "Massachusetts"),
    ("MD", "Maryland"),
    ("ME", "Maine"),
    ("MI", "Michigan"),
    ("MN", "Minnesota"),
    ("MO", "Missouri"),
    ("MS", "Mississippi"),
    ("MT", "Montana"),
    ("NC", "North Carolina"),
    ("ND", "North Dakota"),
    ("NE", "Nebraska"),
    ("NH", "New Hampshire"),
    ("NJ", "New Jersey"),
    ("NM", "New Mexico"),
    ("NV", "Nevada"),
    ("NY", "New York"),
    ("OH", "Ohio"),
    ("OK", "Oklahoma"),
    ("OR", "Oregon"),
    ("PA", "Pennsylvania"),
    ("SC", "South Carolina"),
    ("SD", "South Dakota"),
    ("TN", "Tennessee"),
    ("TX", "Texas"),
    ("UT", "Utah"),
    ("VA", "Virginia"),
    ("VT", "Vermont"),
    ("WA", "Washington"),
    ("WI", "Wisconsin"),
    ("WV", "West Virginia"),
    ("WY", "Wyoming"),
];

/// Looks up a state's abbreviation from its full name (case-insensitive).
pub fn state_abbrev(full_name: &str) -> Option<&'static str> {
    US_STATES
        .iter()
        .find(|(_, n)| n.eq_ignore_ascii_case(full_name))
        .map(|(a, _)| *a)
}

/// True if `s` is a US state abbreviation.
pub fn is_state_abbrev(s: &str) -> bool {
    s.len() == 2 && US_STATES.iter().any(|(a, _)| a.eq_ignore_ascii_case(s))
}

/// Aircraft manufacturers with representative models.
pub const AIRCRAFT: &[(&str, &[&str])] = &[
    ("Cessna", &["172", "182", "150", "206", "210"]),
    ("Piper", &["PA-28", "PA-32", "J3", "PA-18"]),
    ("Beechcraft", &["Bonanza", "Baron", "King Air"]),
    ("Mooney", &["M20"]),
    ("Cirrus", &["SR20", "SR22"]),
    ("Bell", &["206", "407"]),
    ("Robinson", &["R22", "R44"]),
    ("Boeing", &["737", "757"]),
    ("Diamond", &["DA40", "DA42"]),
    ("Grumman", &["AA-5"]),
];

/// Incident cause taxonomy: `(category, detail causes)`.
///
/// The sample query in the paper — "What percent of environmentally caused
/// incidents were due to wind?" — filters on the `environmental` category and
/// the `wind` detail.
pub const CAUSES: &[(&str, &[&str])] = &[
    (
        "environmental",
        &["wind", "fog", "icing", "thunderstorm", "turbulence", "snow"],
    ),
    (
        "mechanical",
        &[
            "engine failure",
            "fuel contamination",
            "landing gear failure",
            "control cable failure",
            "propeller damage",
        ],
    ),
    (
        "pilot error",
        &[
            "loss of control",
            "improper flare",
            "fuel exhaustion",
            "spatial disorientation",
            "inadequate preflight",
        ],
    ),
    (
        "other",
        &["bird strike", "runway incursion", "wire strike", "unknown"],
    ),
];

/// The category a detail cause belongs to, if known.
pub fn cause_category(detail: &str) -> Option<&'static str> {
    let d = detail.to_ascii_lowercase();
    CAUSES
        .iter()
        .find(|(_, details)| details.iter().any(|x| d.contains(x)))
        .map(|(cat, _)| *cat)
}

/// Flight phases for NTSB reports.
pub const FLIGHT_PHASES: &[&str] = &[
    "takeoff", "initial climb", "cruise", "maneuvering", "approach", "landing", "taxi",
];

/// Company sectors for the earnings corpus.
pub const SECTORS: &[&str] = &[
    "AI", "software", "semiconductors", "retail", "energy", "healthcare", "fintech", "logistics",
];

/// Components for synthetic company names; combined as `"<A> <B>"`.
pub const COMPANY_HEADS: &[&str] = &[
    "Apex", "Northwind", "Quantum", "Blue Ridge", "Stellar", "Cascade", "Ironwood", "Vertex",
    "Summit", "Lumen", "Orion", "Pinnacle", "Atlas", "Nimbus", "Crescent", "Granite",
];
pub const COMPANY_TAILS: &[&str] = &[
    "Systems", "Dynamics", "Holdings", "Technologies", "Industries", "Analytics", "Networks",
    "Robotics", "Capital", "Labs", "Energy", "Logistics",
];

/// Personal names for pilots and executives.
pub const FIRST_NAMES: &[&str] = &[
    "James", "Maria", "Wei", "Aisha", "Carlos", "Elena", "David", "Priya", "Thomas", "Yuki",
    "Sarah", "Omar", "Linda", "Viktor", "Grace", "Henrik",
];
pub const LAST_NAMES: &[&str] = &[
    "Anderson", "Garcia", "Chen", "Okafor", "Martinez", "Petrov", "Johnson", "Patel", "Mueller",
    "Tanaka", "Brown", "Hassan", "Kim", "Novak", "Silva", "Larsen",
];

/// Cities paired with their state abbreviation, for incident locations.
pub const CITIES: &[(&str, &str)] = &[
    ("Anchorage", "AK"),
    ("Fairbanks", "AK"),
    ("Phoenix", "AZ"),
    ("Denver", "CO"),
    ("Miami", "FL"),
    ("Atlanta", "GA"),
    ("Boise", "ID"),
    ("Chicago", "IL"),
    ("Wichita", "KS"),
    ("Boston", "MA"),
    ("Detroit", "MI"),
    ("Minneapolis", "MN"),
    ("Kansas City", "MO"),
    ("Billings", "MT"),
    ("Charlotte", "NC"),
    ("Fargo", "ND"),
    ("Omaha", "NE"),
    ("Albuquerque", "NM"),
    ("Reno", "NV"),
    ("Buffalo", "NY"),
    ("Columbus", "OH"),
    ("Tulsa", "OK"),
    ("Portland", "OR"),
    ("Pittsburgh", "PA"),
    ("Nashville", "TN"),
    ("Austin", "TX"),
    ("Dallas", "TX"),
    ("Salt Lake City", "UT"),
    ("Richmond", "VA"),
    ("Seattle", "WA"),
    ("Spokane", "WA"),
    ("Madison", "WI"),
    ("Cheyenne", "WY"),
];

/// Positive/negative sentiment cue words, used for brand/outlook analysis.
pub const POSITIVE_CUES: &[&str] = &[
    "strong", "record", "beat", "exceeded", "growth", "optimistic", "robust", "momentum",
    "outperformed", "raised",
];
pub const NEGATIVE_CUES: &[&str] = &[
    "weak", "missed", "declined", "headwinds", "cautious", "slowdown", "disappointing",
    "lowered", "shortfall", "churn",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_are_unique_and_well_formed() {
        let mut abbrevs: Vec<&str> = US_STATES.iter().map(|(a, _)| *a).collect();
        abbrevs.sort_unstable();
        let n = abbrevs.len();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), n);
        assert!(US_STATES.iter().all(|(a, _)| a.len() == 2));
    }

    #[test]
    fn state_lookup() {
        assert_eq!(state_abbrev("alaska"), Some("AK"));
        assert_eq!(state_abbrev("Narnia"), None);
        assert!(is_state_abbrev("wa"));
        assert!(!is_state_abbrev("XX"));
        assert!(!is_state_abbrev("WAS"));
    }

    #[test]
    fn cause_categories_cover_details() {
        assert_eq!(cause_category("wind"), Some("environmental"));
        assert_eq!(cause_category("gusting WIND conditions"), Some("environmental"));
        assert_eq!(cause_category("engine failure"), Some("mechanical"));
        assert_eq!(cause_category("teleportation mishap"), None);
    }

    #[test]
    fn detail_causes_unique_across_categories() {
        let mut all: Vec<&str> = CAUSES.iter().flat_map(|(_, d)| d.iter().copied()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn sentiment_cues_disjoint() {
        assert!(POSITIVE_CUES.iter().all(|p| !NEGATIVE_CUES.contains(p)));
    }
}
