//! A human-writable text format for indoor floor plans.
//!
//! JSON round-trips venues exactly but is unpleasant to author by hand. The
//! *plan text* format lets venue operators describe a floor plan in a few
//! lines — the quickstart venue looks like this:
//!
//! ```text
//! # office floor
//! partition room_a   public
//! partition hallway  public
//! partition archive  private
//!
//! door a public  7:00-20:00            @ 0,0   room_a <> hallway
//! door b public  7:00-20:00            @ 10,0  hallway <> room_b
//! door c private 9:00-17:00            @ 5,-4  hallway <> archive
//! door e public  always                @ 2,8   hallway <> out      # out = outdoors
//! door x public  never                 @ 9,9   archive |           # boundary door
//! door g public  0:00-6:00, 6:30-23:00 @ 1,1   room_a -> hallway   # one-way, two ATIs
//!
//! distance hallway a b 12.5            # explicit DM override
//! ```
//!
//! Grammar (one directive per line; `#` starts a comment):
//!
//! * `partition NAME public|private|outdoor [floor N] [polygon x,y x,y …]`
//! * `door NAME public|private ATIS @ X,Y[,FLOOR] A <> B | A -> B | A |`
//!   where `ATIS` is `always`, `never` or a comma-separated list of
//!   `H:MM-H:MM` intervals, and the tail picks two-way, one-way or boundary
//!   connection (`out` names the implicit outdoor partition);
//! * `distance PARTITION DOOR DOOR METRES`
//!
//! Names are case-sensitive identifiers without whitespace or `#`. [`parse`]
//! produces a validated [`IndoorSpace`]; [`to_plan_text`] writes one back
//! (polygons included, explicit overrides folded into geometry are not
//! recoverable and are re-emitted as `distance` lines only when they differ
//! from geometry).

use std::collections::HashMap;
use std::fmt::Write as _;

use indoor_geom::{Point, Polygon};
use indoor_time::{AtiList, Interval, TimeOfDay};

use crate::{
    Connection, DoorKind, FloorId, IndoorSpace, PartitionId, PartitionKind, SpaceError,
    VenueBuilder,
};

/// A parse failure with its line number (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    /// 1-based line of the offending directive (0 for builder-level errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanError {}

fn err(line: usize, message: impl Into<String>) -> PlanError {
    PlanError {
        line,
        message: message.into(),
    }
}

impl From<SpaceError> for PlanError {
    fn from(e: SpaceError) -> Self {
        err(0, e.to_string())
    }
}

/// Parses plan text into a validated venue.
///
/// # Errors
/// Returns the first syntax or validation error with its line number.
pub fn parse(text: &str) -> Result<IndoorSpace, PlanError> {
    let mut b = VenueBuilder::new();
    let mut partitions: HashMap<String, PartitionId> = HashMap::new();
    let mut doors: HashMap<String, (crate::DoorId, Connection)> = HashMap::new();
    let mut outdoor: Option<PartitionId> = None;

    // Two passes so doors may reference partitions declared later.
    for (ln, raw) in text.lines().enumerate() {
        let line_no = ln + 1;
        let line = strip_comment(raw);
        let mut words = line.split_whitespace();
        let Some(head) = words.next() else { continue };
        if head != "partition" {
            continue;
        }
        let name = words
            .next()
            .ok_or_else(|| err(line_no, "partition needs a name"))?;
        if partitions.contains_key(name) {
            return Err(err(line_no, format!("duplicate partition `{name}`")));
        }
        let kind = match words.next() {
            Some("public") => PartitionKind::Public,
            Some("private") => PartitionKind::Private,
            Some("outdoor") => PartitionKind::Outdoor,
            other => {
                return Err(err(
                    line_no,
                    format!("expected public|private|outdoor, got {other:?}"),
                ))
            }
        };
        let rest: Vec<&str> = words.collect();
        let mut floor = FloorId(0);
        let mut poly_words: &[&str] = &[];
        match rest.first() {
            Some(&"floor") => {
                let n = rest
                    .get(1)
                    .ok_or_else(|| err(line_no, "floor needs a number"))?;
                floor = FloorId(n.parse().map_err(|_| err(line_no, "bad floor number"))?);
                if rest.get(2) == Some(&"polygon") {
                    poly_words = &rest[3..];
                }
            }
            Some(&"polygon") => poly_words = &rest[1..],
            Some(w) => return Err(err(line_no, format!("unexpected `{w}`"))),
            None => {}
        }
        let polygon = if poly_words.is_empty() {
            None
        } else {
            let pts = poly_words
                .iter()
                .map(|w| parse_xy(w).ok_or_else(|| err(line_no, format!("bad vertex `{w}`"))))
                .collect::<Result<Vec<Point>, _>>()?;
            Some(Polygon::new(pts).map_err(|e| err(line_no, e.to_string()))?)
        };
        let id = b.add_partition_on(name, kind, floor, polygon);
        partitions.insert(name.to_owned(), id);
        if kind == PartitionKind::Outdoor && outdoor.is_none() {
            outdoor = Some(id);
        }
    }

    let mut lookup = |b: &mut VenueBuilder,
                      partitions: &mut HashMap<String, PartitionId>,
                      name: &str|
     -> PartitionId {
        if name == "out" {
            *outdoor.get_or_insert_with(|| {
                let id = b.add_partition_on("out", PartitionKind::Outdoor, FloorId(0), None);
                partitions.insert("out".into(), id);
                id
            })
        } else {
            partitions[name]
        }
    };

    for (ln, raw) in text.lines().enumerate() {
        let line_no = ln + 1;
        let line = strip_comment(raw);
        let mut words = line.split_whitespace().peekable();
        let Some(head) = words.next() else { continue };
        match head {
            "partition" => {} // first pass
            "door" => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line_no, "door needs a name"))?
                    .to_owned();
                if doors.contains_key(&name) {
                    return Err(err(line_no, format!("duplicate door `{name}`")));
                }
                let kind = match words.next() {
                    Some("public") => DoorKind::Public,
                    Some("private") => DoorKind::Private,
                    other => {
                        return Err(err(
                            line_no,
                            format!("expected public|private, got {other:?}"),
                        ))
                    }
                };
                // ATIs: tokens until `@`.
                let mut ati_text = String::new();
                for w in words.by_ref() {
                    if w == "@" {
                        break;
                    }
                    ati_text.push_str(w);
                }
                let atis = parse_atis(&ati_text).map_err(|m| err(line_no, m))?;
                let pos_word = words
                    .next()
                    .ok_or_else(|| err(line_no, "door needs `@ X,Y` position"))?;
                let (pos, floor) =
                    parse_position(pos_word).ok_or_else(|| err(line_no, "bad position"))?;
                // Connection: `A <> B`, `A -> B` or `A |`.
                let a = words
                    .next()
                    .ok_or_else(|| err(line_no, "door needs a connection"))?;
                let op = words
                    .next()
                    .ok_or_else(|| err(line_no, "door needs `<>`, `->` or `|`"))?;
                fn check(
                    partitions: &HashMap<String, PartitionId>,
                    line_no: usize,
                    n: &str,
                ) -> Result<(), PlanError> {
                    if n != "out" && !partitions.contains_key(n) {
                        return Err(err(line_no, format!("unknown partition `{n}`")));
                    }
                    Ok(())
                }
                check(&partitions, line_no, a)?;
                let pa = lookup(&mut b, &mut partitions, a);
                let conn = match op {
                    "|" => Connection::Boundary(pa),
                    "<>" | "->" => {
                        let bb = words
                            .next()
                            .ok_or_else(|| err(line_no, "missing second partition"))?;
                        check(&partitions, line_no, bb)?;
                        let pb = lookup(&mut b, &mut partitions, bb);
                        if op == "<>" {
                            Connection::TwoWay(pa, pb)
                        } else {
                            Connection::OneWay { from: pa, to: pb }
                        }
                    }
                    other => return Err(err(line_no, format!("bad connector `{other}`"))),
                };
                let id = b.add_door_on(&name, kind, atis, pos, floor);
                b.connect(id, conn)
                    .map_err(|e| err(line_no, e.to_string()))?;
                doors.insert(name, (id, conn));
            }
            "distance" => {
                let p = words
                    .next()
                    .ok_or_else(|| err(line_no, "distance needs a partition"))?;
                let d1 = words
                    .next()
                    .ok_or_else(|| err(line_no, "distance needs two doors"))?;
                let d2 = words
                    .next()
                    .ok_or_else(|| err(line_no, "distance needs two doors"))?;
                let m: f64 = words
                    .next()
                    .ok_or_else(|| err(line_no, "distance needs metres"))?
                    .parse()
                    .map_err(|_| err(line_no, "bad metres value"))?;
                let pid = *partitions
                    .get(p)
                    .ok_or_else(|| err(line_no, format!("unknown partition `{p}`")))?;
                // A door of the override must bound its partition; checked
                // here, the error keeps this line and the plan's names.
                let door = |name: &str| {
                    let &(id, conn) = doors
                        .get(name)
                        .ok_or_else(|| err(line_no, format!("unknown door `{name}`")))?;
                    match conn.partitions() {
                        (a, b) if a == pid || b == Some(pid) => Ok(id),
                        _ => Err(err(
                            line_no,
                            format!("door `{name}` does not belong to partition `{p}`"),
                        )),
                    }
                };
                let a = door(d1)?;
                let bb = door(d2)?;
                b.set_distance(pid, a, bb, m)
                    .map_err(|e| err(line_no, e.to_string()))?;
            }
            other => return Err(err(line_no, format!("unknown directive `{other}`"))),
        }
    }

    b.build().map_err(PlanError::from)
}

/// Serialises a venue to plan text (connections are reconstructed from the
/// directional topology; explicit overrides are re-emitted when they differ
/// from door-position geometry).
#[must_use]
pub fn to_plan_text(space: &IndoorSpace) -> String {
    let mut out = String::from("# itspq plan text\n");
    for p in space.partitions() {
        let kind = match p.kind {
            PartitionKind::Public => "public",
            PartitionKind::Private => "private",
            PartitionKind::Outdoor => "outdoor",
        };
        let _ = write!(
            out,
            "partition {} {kind} floor {}",
            sanitize(&p.name),
            p.floor.0
        );
        if let Some(poly) = &p.polygon {
            let _ = write!(out, " polygon");
            for v in poly.vertices() {
                let _ = write!(out, " {},{}", v.x, v.y);
            }
        }
        out.push('\n');
    }
    for d in space.doors() {
        let kind = match d.kind {
            DoorKind::Public => "public",
            DoorKind::Private => "private",
        };
        let atis = atis_text(&d.atis);
        let leaves = space.d2p_leaveable(d.id);
        let enters = space.d2p_enterable(d.id);
        let conn = if leaves.len() == 1 && enters.len() == 1 && leaves[0] != enters[0] {
            format!(
                "{} -> {}",
                sanitize(&space.partition(leaves[0]).name),
                sanitize(&space.partition(enters[0]).name)
            )
        } else if leaves.len() == 2 {
            format!(
                "{} <> {}",
                sanitize(&space.partition(leaves[0]).name),
                sanitize(&space.partition(leaves[1]).name)
            )
        } else {
            format!("{} |", sanitize(&space.partition(leaves[0]).name))
        };
        let _ = writeln!(
            out,
            "door {} {kind} {atis} @ {},{},{} {conn}",
            sanitize(&d.name),
            d.position.x,
            d.position.y,
            d.floor.0
        );
    }
    // Explicit distances that differ from raw geometry.
    for p in space.partitions() {
        let dm = space.distance_matrix(p.id);
        let doors = dm.doors();
        for (i, &a) in doors.iter().enumerate() {
            for &bb in &doors[i + 1..] {
                // `doors()` enumerates exactly this matrix's keys.
                #[expect(
                    clippy::expect_used,
                    reason = "a and bb come from dm.doors(), so the entry exists"
                )]
                let stored = dm.distance(a, bb).expect("doors of this matrix");
                let geo = space.door(a).position.distance(space.door(bb).position);
                if (stored - geo).abs() > 1e-9 {
                    let _ = writeln!(
                        out,
                        "distance {} {} {} {}",
                        sanitize(&p.name),
                        sanitize(&space.door(a).name),
                        sanitize(&space.door(bb).name),
                        stored
                    );
                }
            }
        }
    }
    out
}

fn sanitize(name: &str) -> String {
    // Names must survive tokenisation: no whitespace, and `#` would start a
    // comment.
    name.chars()
        .map(|c| {
            if c.is_whitespace() || c == '#' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

fn strip_comment(line: &str) -> &str {
    line.split('#').next().unwrap_or("")
}

fn parse_xy(w: &str) -> Option<Point> {
    let (x, y) = w.split_once(',')?;
    Some(Point::new(parse_coord(x)?, parse_coord(y)?))
}

/// `X,Y` or `X,Y,FLOOR`.
fn parse_position(w: &str) -> Option<(Point, FloorId)> {
    let parts: Vec<&str> = w.split(',').collect();
    match parts.as_slice() {
        [x, y] => Some((Point::new(parse_coord(x)?, parse_coord(y)?), FloorId(0))),
        [x, y, f] => Some((
            Point::new(parse_coord(x)?, parse_coord(y)?),
            FloorId(f.parse().ok()?),
        )),
        _ => None,
    }
}

/// A finite coordinate: `f64`'s parser also accepts `NaN` and `inf`.
fn parse_coord(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v: &f64| v.is_finite())
}

fn parse_hm(s: &str) -> Result<TimeOfDay, String> {
    let (h, m) = s.split_once(':').ok_or_else(|| format!("bad time `{s}`"))?;
    let h: u32 = h.parse().map_err(|_| format!("bad hour in `{s}`"))?;
    let m: u32 = m.parse().map_err(|_| format!("bad minute in `{s}`"))?;
    if h > 24 || m > 59 || (h == 24 && m != 0) {
        return Err(format!("time out of range `{s}`"));
    }
    Ok(TimeOfDay::hm(h, m))
}

fn parse_atis(text: &str) -> Result<AtiList, String> {
    match text {
        "" => Err("missing ATIs (use `always`, `never` or intervals)".into()),
        "always" => Ok(AtiList::always_open()),
        "never" => Ok(AtiList::never_open()),
        _ => {
            let mut intervals = Vec::new();
            for part in text.split(',').filter(|p| !p.is_empty()) {
                let (a, b) = part
                    .split_once('-')
                    .ok_or_else(|| format!("bad interval `{part}` (expected H:MM-H:MM)"))?;
                let interval = Interval::new(parse_hm(a)?, parse_hm(b)?)
                    .map_err(|e| format!("bad interval `{part}`: {e}"))?;
                intervals.push(interval);
            }
            AtiList::from_intervals(intervals).map_err(|e| e.to_string())
        }
    }
}

fn atis_text(atis: &AtiList) -> String {
    if atis.is_always_open() {
        return "always".into();
    }
    if atis.is_never_open() {
        return "never".into();
    }
    atis.intervals()
        .iter()
        .map(|iv| {
            let fmt = |t: TimeOfDay| {
                let s = t.seconds().round() as u64;
                format!("{}:{:02}", s / 3600, (s % 3600) / 60)
            };
            format!("{}-{}", fmt(iv.start()), fmt(iv.end()))
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# tiny office
partition room_a  public
partition hallway public polygon 0,0 20,0 20,10 0,10
partition archive private floor 0

door a public 7:00-20:00 @ 0,0 room_a <> hallway
door c private 9:00-17:00 @ 5,-4 hallway <> archive
door e public always @ 2,8 hallway -> out
door x public never @ 9,9 archive |
door g public 0:00-6:00,6:30-23:00 @ 1,1 room_a -> hallway

distance hallway a c 12.5
";

    #[test]
    fn parses_the_sample() {
        let space = parse(SAMPLE).unwrap();
        assert_eq!(space.num_partitions(), 4); // + implicit `out`
        assert_eq!(space.num_doors(), 5);
        let stats = space.stats();
        assert_eq!(stats.outdoor_partitions, 1);
        assert_eq!(stats.private_doors, 1);
        // ATIs parsed correctly.
        let g = space.doors().iter().find(|d| d.name == "g").unwrap();
        assert!(g.atis.is_open(TimeOfDay::hm(5, 0)));
        assert!(!g.atis.is_open(TimeOfDay::hm(6, 15)));
        assert!(g.atis.is_open(TimeOfDay::hm(12, 0)));
        // Directionality.
        let e = space.doors().iter().find(|d| d.name == "e").unwrap();
        assert_eq!(space.d2p_leaveable(e.id).len(), 1);
        assert_eq!(space.d2p_enterable(e.id).len(), 1);
        // Explicit distance override.
        let hallway = space
            .partitions()
            .iter()
            .find(|p| p.name == "hallway")
            .unwrap();
        let a = space.doors().iter().find(|d| d.name == "a").unwrap();
        let c = space.doors().iter().find(|d| d.name == "c").unwrap();
        assert_eq!(space.door_to_door(hallway.id, a.id, c.id), Some(12.5));
        // Polygon attached.
        assert!(hallway.polygon.is_some());
    }

    #[test]
    fn round_trips_through_plan_text() {
        let space = parse(SAMPLE).unwrap();
        let text = to_plan_text(&space);
        let again = parse(&text).unwrap();
        // Identical structure (names, kinds, topology, DMs, ATIs).
        assert_eq!(space.num_partitions(), again.num_partitions());
        assert_eq!(space.num_doors(), again.num_doors());
        for (p, q) in space.partitions().iter().zip(again.partitions()) {
            assert_eq!(p.kind, q.kind);
            assert_eq!(space.p2d(p.id), again.p2d(q.id));
            assert_eq!(space.distance_matrix(p.id), again.distance_matrix(q.id));
        }
        for (d, e) in space.doors().iter().zip(again.doors()) {
            assert_eq!(d.atis, e.atis);
            assert_eq!(d.kind, e.kind);
            assert_eq!(space.d2p_leaveable(d.id), again.d2p_leaveable(e.id));
            assert_eq!(space.d2p_enterable(d.id), again.d2p_enterable(e.id));
        }
    }

    #[test]
    fn paper_example_round_trips() {
        let ex = crate::paper_example::build();
        let text = to_plan_text(&ex.space);
        let again = parse(&text).unwrap();
        assert_eq!(ex.space.num_partitions(), again.num_partitions());
        assert_eq!(ex.space.num_doors(), again.num_doors());
        // The crucial v16 DM example survives.
        let v16 = again.partitions().iter().find(|p| p.name == "v16").unwrap();
        let d3 = again.doors().iter().find(|d| d.name == "d3").unwrap();
        let d17 = again.doors().iter().find(|d| d.name == "d17").unwrap();
        assert_eq!(again.door_to_door(v16.id, d3.id, d17.id), Some(2.0));
        // d3 stays one-way.
        assert_eq!(again.d2p_leaveable(d3.id).len(), 1);
        assert_eq!(again.d2p_enterable(d3.id).len(), 1);
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let bad = "partition a public\nbogus directive\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let bad = "door d public always @ 0,0 nowhere <> elsewhere\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown partition"));

        let bad = "partition a public\npartition a private\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));

        let bad = "partition a public\ndoor d public 25:00-26:00 @ 0,0 a |\n";
        let e = parse(bad).unwrap_err();
        assert!(e.message.contains("out of range"));

        for v in ["NaN,0", "inf,0", "0,-inf"] {
            let bad = format!("partition a public polygon 0,0 {v} 10,10 0,10\n");
            let e = parse(&bad).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains("bad vertex"), "{v}: {e}");
        }
        let bad = "partition a public\npartition b public\n\
                   door d1 public always @ 0,0 b |\ndoor d2 public always @ 1,0 a |\n\
                   \n# a comment line\ndistance a d1 d2 3\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 7: door `d1` does not belong to partition `a`"
        );

        for p in ["NaN,0", "0,inf", "inf,0,1"] {
            let bad = format!("partition a public\ndoor d public always @ {p} a |\n");
            let e = parse(&bad).unwrap_err();
            assert_eq!(e.line, 2);
            assert!(e.message.contains("bad position"), "{p}: {e}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# nothing\n   \npartition solo public\ndoor d public always @ 1,2 solo |\n";
        let space = parse(text).unwrap();
        assert_eq!(space.num_partitions(), 1);
        assert_eq!(space.num_doors(), 1);
    }
}
