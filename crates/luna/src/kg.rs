//! Pay-as-you-go knowledge-graph construction (§7).
//!
//! "We also aim to build and continuously refine a knowledge graph in a
//! pay-as-you-go fashion" — entities and relations are derived from the
//! *extracted properties* of ingested documents, so the graph grows as
//! extraction does, with no separate annotation pass. Re-running the builder
//! after new extractions merges new facts into existing nodes
//! ([`aryn_index::GraphStore::upsert_node`] merges properties).
//!
//! The graph backs Luna's `graphExpand` operator, which serves the paper's
//! §1 data-integration pattern: "list the fastest growing companies in the
//! BNPL market and their competitors, where the competitive information may
//! involve a lookup in a database."

use aryn_core::{obj, Document, Result, Value};
use aryn_index::{DocStore, GraphNode, GraphStore};

/// Merges one earnings document into the graph: company and sector nodes,
/// `in_sector` membership, and `competitor_of` edges against every company
/// already known in the same sector. O(companies-in-sector) per call, with
/// `competitor_of` derived from graph state (not a batch scan), so a
/// streaming feed can call this per arrival. Returns competitor edges added.
fn update_earnings_graph(d: &Document, graph: &mut GraphStore) -> Result<usize> {
    let Some(company) = d.prop("company").and_then(Value::as_str) else {
        return Ok(0);
    };
    let company = company.to_string();
    let sector = d
        .prop("sector")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    graph.upsert_node(GraphNode {
        id: company.clone(),
        label: "company".into(),
        properties: obj! {
            "sector" => sector.as_str(),
            "ceo" => d.prop("ceo").cloned().unwrap_or(Value::Null),
            "ticker" => d.prop("ticker").cloned().unwrap_or(Value::Null),
        },
    });
    let sector_node = format!("sector:{sector}");
    graph.upsert_node(GraphNode {
        id: sector_node.clone(),
        label: "sector".into(),
        properties: obj! { "name" => sector.as_str() },
    });
    graph.add_edge(&company, "in_sector", &sector_node)?;
    // Competitors: the sector node's members, read back from the graph.
    let peers: Vec<String> = graph
        .incoming(&sector_node, Some("in_sector"))
        .into_iter()
        .map(|n| n.id.clone())
        .filter(|id| *id != company)
        .collect();
    let mut edges = 0;
    for peer in peers {
        if !graph.has_edge(&company, "competitor_of", &peer)
            && !graph.has_edge(&peer, "competitor_of", &company)
        {
            graph.add_edge(&company, "competitor_of", &peer)?;
            edges += 1;
        }
    }
    Ok(edges)
}

/// Merges one NTSB document into the graph: incident, state, and
/// aircraft-make entities with `occurred_in` and `involved_make` edges.
/// Returns edges added.
fn update_ntsb_graph(d: &Document, graph: &mut GraphStore) -> Result<usize> {
    graph.upsert_node(GraphNode {
        id: d.id.0.clone(),
        label: "incident".into(),
        properties: obj! {
            "cause_detail" => d.prop("cause_detail").cloned().unwrap_or(Value::Null),
            "year" => d.prop("year").cloned().unwrap_or(Value::Null),
        },
    });
    let mut edges = 0;
    if let Some(state) = d.prop("us_state_abbrev").and_then(Value::as_str) {
        graph.upsert_node(GraphNode {
            id: format!("state:{state}"),
            label: "state".into(),
            properties: obj! { "abbrev" => state },
        });
        graph.add_edge(&d.id.0, "occurred_in", &format!("state:{state}"))?;
        edges += 1;
    }
    if let Some(model) = d.prop("aircraft_model").and_then(Value::as_str) {
        let make = model.split_whitespace().next().unwrap_or(model);
        graph.upsert_node(GraphNode {
            id: format!("make:{make}"),
            label: "aircraft_make".into(),
            properties: obj! { "name" => make },
        });
        graph.add_edge(&d.id.0, "involved_make", &format!("make:{make}"))?;
        edges += 1;
    }
    Ok(edges)
}

/// Builds/refines the graph from an earnings store: one
/// [`update_earnings_graph`] per document. Returns competitor edges added.
pub fn build_earnings_graph(store: &DocStore, graph: &mut GraphStore) -> Result<usize> {
    let mut edges = 0;
    for d in store.scan() {
        edges += update_earnings_graph(d, graph)?;
    }
    Ok(edges)
}

/// Builds/refines the graph from an NTSB store: one [`update_ntsb_graph`]
/// per document. Returns edges added.
pub fn build_ntsb_graph(store: &DocStore, graph: &mut GraphStore) -> Result<usize> {
    let mut edges = 0;
    for d in store.scan() {
        edges += update_ntsb_graph(d, graph)?;
    }
    Ok(edges)
}

/// Competitors of a company, by name.
pub fn competitors_of<'g>(graph: &'g GraphStore, company: &str) -> Vec<&'g GraphNode> {
    let mut out = graph.neighbors(company, Some("competitor_of"));
    out.extend(graph.incoming(company, Some("competitor_of")));
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out.dedup_by(|a, b| a.id == b.id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::Document;

    fn earnings_store() -> DocStore {
        let mut s = DocStore::new();
        for (id, company, sector) in [
            ("e0", "Apex Systems", "AI"),
            ("e1", "Northwind Labs", "AI"),
            ("e2", "Granite Energy", "energy"),
            ("e3", "Apex Systems", "AI"), // second quarter, same company
        ] {
            let mut d = Document::new(id);
            d.set_prop("company", company);
            d.set_prop("sector", sector);
            d.set_prop("ceo", "Maria Chen");
            s.try_put(d).unwrap();
        }
        s
    }

    #[test]
    fn earnings_graph_builds_companies_sectors_competitors() {
        let mut g = GraphStore::new();
        let edges = build_earnings_graph(&earnings_store(), &mut g).unwrap();
        assert_eq!(g.nodes_with_label("company").len(), 3);
        assert_eq!(g.nodes_with_label("sector").len(), 2);
        assert_eq!(edges, 1, "one same-sector competitor pair");
        let comp = competitors_of(&g, "Apex Systems");
        assert_eq!(comp.len(), 1);
        assert_eq!(comp[0].id, "Northwind Labs");
        // Symmetric view.
        let comp = competitors_of(&g, "Northwind Labs");
        assert_eq!(comp[0].id, "Apex Systems");
        // Unrelated sector has no competitors.
        assert!(competitors_of(&g, "Granite Energy").is_empty());
    }

    #[test]
    fn graph_refines_pay_as_you_go() {
        let mut g = GraphStore::new();
        build_earnings_graph(&earnings_store(), &mut g).unwrap();
        // New extraction round adds a company; rebuilding merges, not dupes.
        let mut store = earnings_store();
        let mut d = Document::new("e4");
        d.set_prop("company", "Vertex Robotics");
        d.set_prop("sector", "AI");
        store.try_put(d).unwrap();
        build_earnings_graph(&store, &mut g).unwrap();
        assert_eq!(g.nodes_with_label("company").len(), 4);
        assert_eq!(competitors_of(&g, "Apex Systems").len(), 2);
        // Node properties merged (ceo survived the second pass).
        assert_eq!(
            g.node("Apex Systems").unwrap().properties.get("ceo").unwrap().as_str(),
            Some("Maria Chen")
        );
    }

    #[test]
    fn per_doc_updates_are_idempotent_and_match_batch() {
        let store = earnings_store();
        let mut batch = GraphStore::new();
        build_earnings_graph(&store, &mut batch).unwrap();
        // Streaming the same documents one at a time lands on the same graph.
        let mut inc = GraphStore::new();
        for d in store.scan() {
            update_earnings_graph(d, &mut inc).unwrap();
        }
        assert_eq!(inc.node_count(), batch.node_count());
        assert_eq!(inc.edge_count(), batch.edge_count());
        // Re-processing an arrival adds nothing: competitor wiring is
        // derived from graph state and deduped by `has_edge`.
        let d = store.scan().next().unwrap();
        let added = update_earnings_graph(d, &mut inc).unwrap();
        assert_eq!(added, 0);
        assert_eq!(inc.edge_count(), batch.edge_count());
    }

    #[test]
    fn ntsb_graph_links_incidents_to_states_and_makes() {
        let mut s = DocStore::new();
        let mut d = Document::new("ntsb-1");
        d.set_prop("us_state_abbrev", "AK");
        d.set_prop("aircraft_model", "Cessna 172");
        s.try_put(d).unwrap();
        let mut g = GraphStore::new();
        let edges = build_ntsb_graph(&s, &mut g).unwrap();
        assert_eq!(edges, 2);
        assert_eq!(g.neighbors("ntsb-1", Some("occurred_in"))[0].id, "state:AK");
        assert_eq!(g.incoming("make:Cessna", Some("involved_make"))[0].id, "ntsb-1");
    }
}
