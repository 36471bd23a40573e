//! Regression tests: a malformed JSON venue is a typed error, never a venue.
//!
//! A JSON venue holds the builder's inputs (partitions, doors with their
//! ATIs and connections, explicit distances), and deserialising runs
//! `VenueBuilder::build` on them. So every mutation below must fail to
//! load: a file that loaded anyway would reach the search with a topology
//! or a matrix the builder never checked.

use indoor_space::IndoorSpace;
use indoor_synthetic::{build_mall, HoursConfig, MallConfig, ShopHours};

/// A serialised 1-floor generated mall.
fn mall_json() -> String {
    let hours = ShopHours::sample(&HoursConfig::default());
    serde_json::to_string(&build_mall(&MallConfig::single_floor(), &hours)).unwrap()
}

/// `json` with the value that follows the first `marker` replaced by
/// `value`. The value ends at the next `,`, `]` or `}`.
fn set_first(json: &str, marker: &str, value: &str) -> String {
    let start = json.find(marker).unwrap() + marker.len();
    let len = json[start..].find([',', ']', '}']).unwrap();
    format!("{}{value}{}", &json[..start], &json[start + len..])
}

/// `json` with the first object that begins with `head` replaced by
/// `object` (the object must hold no nested object).
fn replace_object(json: &str, head: &str, object: &str) -> String {
    let start = json.find(head).unwrap();
    let len = json[start..].find('}').unwrap() + 1;
    format!("{}{object}{}", &json[..start], &json[start + len..])
}

/// Loading `json` must fail with an error that mentions `why`.
fn refused(json: &str, why: &str) {
    match serde_json::from_str::<IndoorSpace>(json) {
        Ok(_) => panic!("loaded a venue that should be refused ({why})"),
        Err(e) => assert!(e.to_string().contains(why), "expected `{why}`, got `{e}`"),
    }
}

#[test]
fn a_side_naming_an_unknown_partition_is_refused() {
    let json = set_first(&mall_json(), "\"sides\":[", "9999");
    refused(&json, "unknown partition v9999");
}

#[test]
fn a_door_without_a_connection_is_refused() {
    // The connections of the doors run one short: the last door has none.
    let json = mall_json();
    let start = json.rfind(",\"connection\":{").unwrap();
    let len = json[start..].find('}').unwrap() + 1;
    let json = format!("{}{}", &json[..start], &json[start + len..]);
    refused(&json, "missing field `connection`");
}

#[test]
fn impossible_sides_are_refused() {
    let json = mall_json();
    let with = |sides: &str, one_way: bool| {
        replace_object(
            &json,
            "{\"sides\":",
            &format!("{{\"sides\":{sides},\"one_way\":{one_way}}}"),
        )
    };
    refused(&with("[0]", true), "has a single side");
    refused(&with("[0,1,2]", false), "more than two partitions");
    refused(&with("[]", false), "not connected to any partition");
    refused(&with("[0,0]", true), "to itself");
}

#[test]
fn a_negative_explicit_distance_is_refused() {
    let json = set_first(&mall_json(), "\"metres\":", "-2.0");
    refused(&json, "invalid distance -2");
}

#[test]
fn an_explicit_distance_off_its_partition_is_refused() {
    let json = mall_json();
    // Door 0 bounds a hallway cell, not the stair of the first entry.
    refused(
        &set_first(&json, "\"a\":", "0"),
        "does not belong to partition",
    );
    refused(&set_first(&json, "\"a\":", "9999"), "unknown door d9999");
    refused(
        &set_first(&json, "\"partition\":", "9999"),
        "unknown partition v9999",
    );
}

#[test]
fn a_second_distance_for_one_pair_is_refused() {
    let json = mall_json();
    let start = json.find("\"distances\":[").unwrap() + "\"distances\":[".len();
    let first = &json[start..start + json[start..].find('}').unwrap()];
    let field = |name: &str| {
        let marker = format!("\"{name}\":");
        let at = first.find(&marker).unwrap() + marker.len();
        let len = first[at..].find(',').unwrap_or(first.len() - at);
        &first[at..at + len]
    };
    let (p, a, b) = (field("partition"), field("a"), field("b"));
    // The first entry's pair again, doors swapped, at another length.
    let again = format!("{{\"partition\":{p},\"a\":{b},\"b\":{a},\"metres\":50.0}},");
    let json = format!("{}{again}{}", &json[..start], &json[start..]);
    refused(
        &json,
        &format!("distance between d{a} and d{b} in partition v{p} is given twice"),
    );
}

#[test]
fn an_inverted_ati_is_refused() {
    let json = replace_object(
        &mall_json(),
        "{\"start\":",
        "{\"start\":72000.0,\"end\":28800.0}",
    );
    refused(&json, "must be after start");
}

#[test]
fn a_time_past_midnight_is_refused() {
    let json = mall_json();
    refused(&set_first(&json, "\"end\":", "86401.0"), "out of range");
    refused(&set_first(&json, "\"end\":", "1e9"), "out of range");
    refused(&set_first(&json, "\"start\":", "-1.0"), "out of range");
}

#[test]
fn a_record_id_is_refused() {
    // The slot is the id, so the file holds none that could disagree.
    let json = mall_json().replacen("{\"name\":", "{\"id\":77,\"name\":", 1);
    refused(&json, "unknown field `id`");
}

#[test]
fn the_old_layout_is_refused() {
    // A two-partition venue as the layout with stored topology, matrices
    // and checkpoints wrote it.
    let old = r#"{"partitions":[{"id":0,"name":"room","kind":"Public","floor":0,"polygon":null},{"id":1,"name":"hall","kind":"Public","floor":0,"polygon":null}],"doors":[{"id":0,"name":"d0","kind":"Public","atis":[{"start":28800.0,"end":64800.0}],"position":{"x":0.0,"y":0.0},"floor":0}],"topology":{"door_leaves":[[0,1]],"door_enters":[[0,1]],"part_doors":[[0],[0]],"part_leaveable":[[0],[0]],"part_enterable":[[0],[0]]},"dms":[{"doors":[0],"dist":[0.0]},{"doors":[0],"dist":[0.0]}],"checkpoints":{"times":[0.0,28800.0,64800.0]}}"#;
    refused(old, "unknown field");
    // Stored mappings added to today's layout are refused too.
    let json = mall_json().replacen(
        ",\"distances\":",
        ",\"topology\":{},\"dms\":[],\"distances\":",
        1,
    );
    refused(&json, "unknown field `topology`");
}

#[test]
fn an_empty_venue_is_refused() {
    refused(
        r#"{"partitions":[],"doors":[],"distances":[]}"#,
        "no partitions",
    );
}
