//! The Figure-1 fleet: schema, seeded data, the generator's record of
//! what it inserted, and the refresh queries with their oracle answers.
//! Both `fleet_query` and `oltp_wire` run over this data set.

use crate::rng::Rng;
use orion_oodb::orion::{
    AttrSpec, Database, DbResult, Domain, IndexKind, Oid, PrimitiveType, QueryResult, Value,
};

/// 12,000 vehicles: the size at which the hierarchy query's per-candidate
/// executor cost dominates a refresh, while the data (~200 pages) still
/// fits the default 256-page buffer pool.
pub const VEHICLES: usize = 12_000;
/// Leaf classes under `Vehicle`, so `Vehicle*` queries span a hierarchy.
pub const LEAF_CLASSES: usize = 8;
/// 100 vehicles per company, as in the repository's fleet fixture.
pub const COMPANIES: usize = 120;
pub const CITIES: [&str; 10] = [
    "Detroit", "Austin", "Portland", "Kyoto", "Venice", "Boston", "Berkeley", "Orlando", "Chicago",
    "SanJose",
];
/// Weights are a shuffled `WEIGHT_STEP, 2*WEIGHT_STEP, ...`: all distinct,
/// so `order by weight` has exactly one right answer.
pub const WEIGHT_STEP: i64 = 10;
pub const MAX_WEIGHT: i64 = VEHICLES as i64 * WEIGHT_STEP;
/// Width of the narrow range query: about 20 vehicles, so the planner
/// always answers it from the `Vehicle*.weight` index.
pub const NARROW_WIDTH: i64 = 20 * WEIGHT_STEP;

pub struct Company {
    pub oid: Oid,
    pub city: usize,
}

pub struct Vehicle {
    pub oid: Oid,
    pub class: usize,
    pub weight: i64,
    pub maker: usize,
}

/// What the generator inserted. The oracle answers every query from
/// this record, never from a second read of the database.
pub struct Fleet {
    pub companies: Vec<Company>,
    pub vehicles: Vec<Vehicle>,
}

pub fn vehicle_name(i: usize) -> String {
    format!("vehicle{i}")
}

/// Create the schema, load the data in one transaction, then build the
/// class-hierarchy index on `Vehicle*.weight`.
pub fn build(db: &Database, rng: &mut Rng) -> DbResult<Fleet> {
    let text = || Domain::Primitive(PrimitiveType::Str);
    let int = || Domain::Primitive(PrimitiveType::Int);
    let company_class = db.create_class(
        "Company",
        &[],
        vec![
            AttrSpec::new("cname", text()),
            AttrSpec::new("location", text()),
        ],
    )?;
    db.create_class(
        "Vehicle",
        &[],
        vec![
            AttrSpec::new("name", text()),
            AttrSpec::new("weight", int()),
            AttrSpec::new("manufacturer", Domain::Class(company_class)),
        ],
    )?;
    for k in 0..LEAF_CLASSES {
        db.create_class(
            &format!("VehicleKind{k}"),
            &["Vehicle"],
            vec![AttrSpec::new(format!("extra{k}"), int())],
        )?;
    }

    let mut weights: Vec<i64> = (1..=VEHICLES as i64).map(|w| w * WEIGHT_STEP).collect();
    rng.shuffle(&mut weights);

    let tx = db.begin();
    let mut companies = Vec::with_capacity(COMPANIES);
    for j in 0..COMPANIES {
        let city = rng.index(CITIES.len());
        let oid = db.create_object(
            &tx,
            "Company",
            vec![
                ("cname", Value::Str(format!("company{j}"))),
                ("location", Value::str(CITIES[city])),
            ],
        )?;
        companies.push(Company { oid, city });
    }
    let mut vehicles = Vec::with_capacity(VEHICLES);
    for (i, weight) in weights.into_iter().enumerate() {
        let class = i % LEAF_CLASSES;
        let maker = rng.index(COMPANIES);
        let oid = db.create_object(
            &tx,
            &format!("VehicleKind{class}"),
            vec![
                ("name", Value::Str(vehicle_name(i))),
                ("weight", Value::Int(weight)),
                ("manufacturer", Value::Ref(companies[maker].oid)),
            ],
        )?;
        vehicles.push(Vehicle {
            oid,
            class,
            weight,
            maker,
        });
    }
    db.commit(tx)?;
    db.create_index(
        "vehicle_weight",
        IndexKind::ClassHierarchy,
        "Vehicle",
        &["weight"],
    )?;
    Ok(Fleet {
        companies,
        vehicles,
    })
}

/// Vehicles the database holds, summed over the leaf-class extents.
pub fn stored_vehicles(db: &Database) -> Result<u64, String> {
    let mut n = 0;
    for k in 0..LEAF_CLASSES {
        n += db
            .extent_len(&format!("VehicleKind{k}"))
            .map_err(|e| e.to_string())?;
    }
    Ok(n as u64)
}

/// The oracle's answer to one query.
pub enum Expect {
    /// The set of matching objects.
    OidSet(Vec<Oid>),
    /// Exact rows and objects, in order.
    Ordered(Vec<Vec<Value>>, Vec<Oid>),
    /// A `count(*)`.
    Count(i64),
    /// The set of projected names.
    NameSet(Vec<String>),
}

pub struct FleetQuery {
    pub shape: &'static str,
    pub text: String,
    pub expect: Expect,
}

/// Query shapes of one refresh, in order.
pub const SHAPES: [&str; 5] = [
    "path_hierarchy",
    "top10",
    "count_city",
    "narrow_range",
    "class_cname",
];

/// One refresh: five queries with parameters drawn from `rng`, each
/// with the answer computed from the generator's record.
pub fn refresh(f: &Fleet, rng: &mut Rng) -> Vec<FleetQuery> {
    let mut out = Vec::with_capacity(SHAPES.len());

    // The path-predicate hierarchy query. The threshold stays in the
    // lower fifth of the weight span so every refresh scans a similar
    // number of candidates (about 80-90% of the fleet).
    let n = (MAX_WEIGHT / 10) + rng.below((MAX_WEIGHT / 10) as u64) as i64;
    let city = rng.index(CITIES.len());
    let mut oids: Vec<Oid> = f
        .vehicles
        .iter()
        .filter(|v| v.weight > n && f.companies[v.maker].city == city)
        .map(|v| v.oid)
        .collect();
    oids.sort();
    out.push(FleetQuery {
        shape: SHAPES[0],
        text: format!(
            "select v.name from Vehicle* v where v.weight > {n} and v.manufacturer.location = \"{}\"",
            CITIES[city]
        ),
        expect: Expect::OidSet(oids),
    });

    // Top 10 by weight. The excluded name is a residual predicate no
    // index serves, so this shape always scans and sorts the hierarchy.
    let skip = rng.index(VEHICLES);
    let mut ranked: Vec<usize> = (0..VEHICLES).filter(|&i| i != skip).collect();
    ranked.sort_by_key(|&i| std::cmp::Reverse(f.vehicles[i].weight));
    ranked.truncate(10);
    out.push(FleetQuery {
        shape: SHAPES[1],
        text: format!(
            "select v.name, v.weight from Vehicle* v where v.name != \"{}\" \
             order by v.weight desc limit 10",
            vehicle_name(skip)
        ),
        expect: Expect::Ordered(
            ranked
                .iter()
                .map(|&i| {
                    vec![
                        Value::Str(vehicle_name(i)),
                        Value::Int(f.vehicles[i].weight),
                    ]
                })
                .collect(),
            ranked.iter().map(|&i| f.vehicles[i].oid).collect(),
        ),
    });

    // Count by city.
    let city = rng.index(CITIES.len());
    let count = f
        .vehicles
        .iter()
        .filter(|v| f.companies[v.maker].city == city)
        .count();
    out.push(FleetQuery {
        shape: SHAPES[2],
        text: format!(
            "select count(*) from Vehicle* v where v.manufacturer.location = \"{}\"",
            CITIES[city]
        ),
        expect: Expect::Count(count as i64),
    });

    // A narrow weight range, answered from the index.
    let lo = rng.below((MAX_WEIGHT - NARROW_WIDTH) as u64) as i64;
    let hi = lo + NARROW_WIDTH;
    let mut names: Vec<String> = (0..VEHICLES)
        .filter(|&i| (lo..hi).contains(&f.vehicles[i].weight))
        .map(vehicle_name)
        .collect();
    names.sort();
    out.push(FleetQuery {
        shape: SHAPES[3],
        text: format!("select v.name from Vehicle* v where v.weight >= {lo} and v.weight < {hi}"),
        expect: Expect::NameSet(names),
    });

    // One leaf class, filtered through a path to the maker's name.
    let class = rng.index(LEAF_CLASSES);
    let maker = rng.index(COMPANIES);
    let mut names: Vec<String> = (0..VEHICLES)
        .filter(|&i| f.vehicles[i].class == class && f.vehicles[i].maker == maker)
        .map(vehicle_name)
        .collect();
    names.sort();
    out.push(FleetQuery {
        shape: SHAPES[4],
        text: format!(
            "select v.name from VehicleKind{class} v where v.manufacturer.cname = \"company{maker}\""
        ),
        expect: Expect::NameSet(names),
    });
    out
}

/// Compare a result with the oracle's answer.
pub fn check(q: &FleetQuery, got: &QueryResult) -> Result<(), String> {
    let mismatch = |what: &str| Err(format!("{} ({}): {what}", q.shape, q.text));
    match &q.expect {
        Expect::OidSet(want) => {
            let mut oids = got.oids.clone();
            oids.sort();
            if &oids != want || got.rows.len() != want.len() {
                return mismatch(&format!("{} objects, expected {}", oids.len(), want.len()));
            }
        }
        Expect::Ordered(rows, oids) => {
            if &got.rows != rows || &got.oids != oids {
                return mismatch("rows differ from the expected top 10");
            }
        }
        Expect::Count(want) => {
            if got.rows != vec![vec![Value::Int(*want)]] {
                return mismatch(&format!("count {:?}, expected {want}", got.rows));
            }
        }
        Expect::NameSet(want) => {
            let mut names = Vec::with_capacity(got.rows.len());
            for row in &got.rows {
                match row.as_slice() {
                    [Value::Str(s)] => names.push(s.clone()),
                    other => return mismatch(&format!("unexpected row {other:?}")),
                }
            }
            names.sort();
            if &names != want {
                return mismatch(&format!("{} names, expected {}", names.len(), want.len()));
            }
        }
    }
    Ok(())
}
