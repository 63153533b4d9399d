//! TPC-H `dbgen`-equivalent data generator.
//!
//! Produces the eight tables with the schema, key structure, and value
//! distributions of the TPC-H specification, scaled by `sf` (SF 1 =
//! 6M-lineitem scale; the reproduction defaults to a laptop-friendly
//! fraction — see DESIGN.md's substitution table). Deterministic for a given
//! seed so differential tests are stable.

use pytond_common::{date, Column, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: &[(&str, i64)] = &[
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIP_MODES: &[&str] = &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const SHIP_INSTRUCT: &[&str] = &[
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const TYPE_SYL1: &[&str] = &["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYL2: &[&str] = &["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYL3: &[&str] = &["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_SYL1: &[&str] = &["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_SYL2: &[&str] = &["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const BRAND_DIGITS: usize = 5;
const P_NAME_WORDS: &[&str] = &[
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "goldenrod",
    "green",
    "grey",
    "honeydew",
    "hot",
    "hotpink",
    "indian",
    "ivory",
    "khaki",
    "lace",
    "lavender",
    "lawn",
    "lemon",
    "light",
    "lime",
    "linen",
    "magenta",
    "maroon",
    "medium",
    "metallic",
    "midnight",
    "mint",
    "misty",
    "moccasin",
    "navajo",
    "navy",
    "olive",
    "orange",
    "orchid",
    "pale",
    "papaya",
    "peach",
    "peru",
    "pink",
    "plum",
    "powder",
    "puff",
    "purple",
    "red",
    "rose",
    "rosy",
    "royal",
    "saddle",
    "salmon",
    "sandy",
    "seashell",
    "sienna",
    "sky",
    "slate",
    "smoke",
    "snow",
    "spring",
    "steel",
    "tan",
    "thistle",
    "tomato",
    "turquoise",
    "violet",
    "wheat",
    "white",
    "yellow",
];
const COMMENT_WORDS: &[&str] = &[
    "carefully",
    "quickly",
    "furiously",
    "slyly",
    "blithely",
    "deposits",
    "accounts",
    "packages",
    "requests",
    "instructions",
    "theodolites",
    "platelets",
    "pinto",
    "beans",
    "foxes",
    "ideas",
    "dependencies",
    "excuses",
    "asymptotes",
    "courts",
    "dolphins",
    "multipliers",
    "sauternes",
    "warthogs",
    "frets",
    "dinos",
    "attainments",
    "regular",
    "express",
    "special",
    "pending",
    "bold",
    "even",
    "final",
    "ironic",
    "silent",
    "unusual",
];

/// Generated TPC-H tables.
#[derive(Debug, Clone)]
pub struct TpchData {
    /// region(r_regionkey, r_name, r_comment)
    pub region: Relation,
    /// nation(n_nationkey, n_name, n_regionkey, n_comment)
    pub nation: Relation,
    /// supplier(...)
    pub supplier: Relation,
    /// part(...)
    pub part: Relation,
    /// partsupp(...)
    pub partsupp: Relation,
    /// customer(...)
    pub customer: Relation,
    /// orders(...)
    pub orders: Relation,
    /// lineitem(...)
    pub lineitem: Relation,
}

impl TpchData {
    /// All tables with name and unique keys, in dependency order.
    pub fn tables(&self) -> Vec<(&'static str, &Relation, Vec<Vec<&'static str>>)> {
        vec![
            ("region", &self.region, vec![vec!["r_regionkey"]]),
            ("nation", &self.nation, vec![vec!["n_nationkey"]]),
            ("supplier", &self.supplier, vec![vec!["s_suppkey"]]),
            ("part", &self.part, vec![vec!["p_partkey"]]),
            (
                "partsupp",
                &self.partsupp,
                vec![vec!["ps_partkey", "ps_suppkey"]],
            ),
            ("customer", &self.customer, vec![vec!["c_custkey"]]),
            ("orders", &self.orders, vec![vec!["o_orderkey"]]),
            ("lineitem", &self.lineitem, vec![]),
        ]
    }
}

fn words(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

fn phone(rng: &mut StdRng, nation: i64) -> String {
    format!(
        "{}-{:03}-{:03}-{:04}",
        10 + nation,
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    )
}

/// Generates the dataset at scale factor `sf` with a fixed seed.
pub fn generate(sf: f64) -> TpchData {
    generate_seeded(sf, 42)
}

/// Generates with an explicit seed.
pub fn generate_seeded(sf: f64, seed: u64) -> TpchData {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_supplier = ((10_000.0 * sf) as usize).max(10);
    let n_part = ((200_000.0 * sf) as usize).max(50);
    let n_customer = ((150_000.0 * sf) as usize).max(30);
    let n_orders = ((1_500_000.0 * sf) as usize).max(100);

    // region
    let region = Relation::new(vec![
        ("r_regionkey".into(), Column::from_i64((0..5).collect())),
        ("r_name".into(), Column::from_strs(REGIONS)),
        (
            "r_comment".into(),
            Column::from_str_vec((0..5).map(|_| words(&mut rng, 4)).collect()),
        ),
    ])
    .unwrap();

    // nation
    let nation = Relation::new(vec![
        (
            "n_nationkey".into(),
            Column::from_i64((0..NATIONS.len() as i64).collect()),
        ),
        (
            "n_name".into(),
            Column::from_str_vec(NATIONS.iter().map(|(n, _)| n.to_string()).collect()),
        ),
        (
            "n_regionkey".into(),
            Column::from_i64(NATIONS.iter().map(|(_, r)| *r).collect()),
        ),
        (
            "n_comment".into(),
            Column::from_str_vec((0..NATIONS.len()).map(|_| words(&mut rng, 5)).collect()),
        ),
    ])
    .unwrap();

    // supplier
    let mut s_key = Vec::with_capacity(n_supplier);
    let mut s_name = Vec::with_capacity(n_supplier);
    let mut s_addr = Vec::with_capacity(n_supplier);
    let mut s_nat = Vec::with_capacity(n_supplier);
    let mut s_phone = Vec::with_capacity(n_supplier);
    let mut s_bal = Vec::with_capacity(n_supplier);
    let mut s_comment = Vec::with_capacity(n_supplier);
    for i in 0..n_supplier {
        let nat = rng.gen_range(0..NATIONS.len() as i64);
        s_key.push(i as i64 + 1);
        s_name.push(format!("Supplier#{:09}", i + 1));
        s_addr.push(words(&mut rng, 2));
        s_nat.push(nat);
        s_phone.push(phone(&mut rng, nat));
        s_bal.push((rng.gen_range(-99_999..1_000_000) as f64) / 100.0);
        // ~0.5% contain the Q16 "Customer Complaints" marker.
        let mut c = words(&mut rng, 4);
        if rng.gen_bool(0.005) {
            c = format!("{c} Customer Complaints {c}");
        }
        s_comment.push(c);
    }
    let supplier = Relation::new(vec![
        ("s_suppkey".into(), Column::from_i64(s_key)),
        ("s_name".into(), Column::from_str_vec(s_name)),
        ("s_address".into(), Column::from_str_vec(s_addr)),
        ("s_nationkey".into(), Column::from_i64(s_nat)),
        ("s_phone".into(), Column::from_str_vec(s_phone)),
        ("s_acctbal".into(), Column::from_f64(s_bal)),
        ("s_comment".into(), Column::from_str_vec(s_comment)),
    ])
    .unwrap();

    // part
    let mut p_key = Vec::with_capacity(n_part);
    let mut p_name = Vec::with_capacity(n_part);
    let mut p_mfgr = Vec::with_capacity(n_part);
    let mut p_brand = Vec::with_capacity(n_part);
    let mut p_type = Vec::with_capacity(n_part);
    let mut p_size = Vec::with_capacity(n_part);
    let mut p_container = Vec::with_capacity(n_part);
    let mut p_retail = Vec::with_capacity(n_part);
    let mut p_comment = Vec::with_capacity(n_part);
    for i in 0..n_part {
        p_key.push(i as i64 + 1);
        let mut name_words = Vec::new();
        for _ in 0..5 {
            name_words.push(P_NAME_WORDS[rng.gen_range(0..P_NAME_WORDS.len())]);
        }
        p_name.push(name_words.join(" "));
        let m = rng.gen_range(1..=5);
        p_mfgr.push(format!("Manufacturer#{m}"));
        p_brand.push(format!("Brand#{}{}", m, rng.gen_range(1..=BRAND_DIGITS)));
        p_type.push(format!(
            "{} {} {}",
            TYPE_SYL1[rng.gen_range(0..TYPE_SYL1.len())],
            TYPE_SYL2[rng.gen_range(0..TYPE_SYL2.len())],
            TYPE_SYL3[rng.gen_range(0..TYPE_SYL3.len())]
        ));
        p_size.push(rng.gen_range(1..=50));
        p_container.push(format!(
            "{} {}",
            CONTAINER_SYL1[rng.gen_range(0..CONTAINER_SYL1.len())],
            CONTAINER_SYL2[rng.gen_range(0..CONTAINER_SYL2.len())]
        ));
        p_retail.push(900.0 + (i % 1000) as f64 / 10.0 + (i % 200) as f64);
        p_comment.push(words(&mut rng, 3));
    }
    let part = Relation::new(vec![
        ("p_partkey".into(), Column::from_i64(p_key)),
        ("p_name".into(), Column::from_str_vec(p_name)),
        ("p_mfgr".into(), Column::from_str_vec(p_mfgr)),
        ("p_brand".into(), Column::from_str_vec(p_brand)),
        ("p_type".into(), Column::from_str_vec(p_type)),
        ("p_size".into(), Column::from_i64(p_size)),
        ("p_container".into(), Column::from_str_vec(p_container)),
        ("p_retailprice".into(), Column::from_f64(p_retail)),
        ("p_comment".into(), Column::from_str_vec(p_comment)),
    ])
    .unwrap();

    // partsupp: 4 suppliers per part
    let n_ps = n_part * 4;
    let mut ps_part = Vec::with_capacity(n_ps);
    let mut ps_supp = Vec::with_capacity(n_ps);
    let mut ps_avail = Vec::with_capacity(n_ps);
    let mut ps_cost = Vec::with_capacity(n_ps);
    let mut ps_comment = Vec::with_capacity(n_ps);
    for p in 0..n_part {
        for s in 0..4usize {
            ps_part.push(p as i64 + 1);
            ps_supp.push(((p + 1 + s * (n_supplier / 4 + 1)) % n_supplier) as i64 + 1);
            ps_avail.push(rng.gen_range(1..10_000));
            ps_cost.push((rng.gen_range(100..100_000) as f64) / 100.0);
            ps_comment.push(words(&mut rng, 3));
        }
    }
    let partsupp = Relation::new(vec![
        ("ps_partkey".into(), Column::from_i64(ps_part)),
        ("ps_suppkey".into(), Column::from_i64(ps_supp)),
        ("ps_availqty".into(), Column::from_i64(ps_avail)),
        ("ps_supplycost".into(), Column::from_f64(ps_cost)),
        ("ps_comment".into(), Column::from_str_vec(ps_comment)),
    ])
    .unwrap();

    // customer
    let mut c_key = Vec::with_capacity(n_customer);
    let mut c_name = Vec::with_capacity(n_customer);
    let mut c_addr = Vec::with_capacity(n_customer);
    let mut c_nat = Vec::with_capacity(n_customer);
    let mut c_phone = Vec::with_capacity(n_customer);
    let mut c_bal = Vec::with_capacity(n_customer);
    let mut c_seg = Vec::with_capacity(n_customer);
    let mut c_comment = Vec::with_capacity(n_customer);
    for i in 0..n_customer {
        let nat = rng.gen_range(0..NATIONS.len() as i64);
        c_key.push(i as i64 + 1);
        c_name.push(format!("Customer#{:09}", i + 1));
        c_addr.push(words(&mut rng, 2));
        c_nat.push(nat);
        c_phone.push(phone(&mut rng, nat));
        c_bal.push((rng.gen_range(-99_999..1_000_000) as f64) / 100.0);
        c_seg.push(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_string());
        c_comment.push(words(&mut rng, 5));
    }
    let customer = Relation::new(vec![
        ("c_custkey".into(), Column::from_i64(c_key)),
        ("c_name".into(), Column::from_str_vec(c_name)),
        ("c_address".into(), Column::from_str_vec(c_addr)),
        ("c_nationkey".into(), Column::from_i64(c_nat)),
        ("c_phone".into(), Column::from_str_vec(c_phone)),
        ("c_acctbal".into(), Column::from_f64(c_bal)),
        ("c_mktsegment".into(), Column::from_str_vec(c_seg)),
        ("c_comment".into(), Column::from_str_vec(c_comment)),
    ])
    .unwrap();

    // orders + lineitem
    let start = date::parse("1992-01-01").unwrap();
    let end = date::parse("1998-08-02").unwrap();
    let mut o_key = Vec::with_capacity(n_orders);
    let mut o_cust = Vec::with_capacity(n_orders);
    let mut o_status = Vec::with_capacity(n_orders);
    let mut o_total = Vec::with_capacity(n_orders);
    let mut o_date = Vec::with_capacity(n_orders);
    let mut o_prio = Vec::with_capacity(n_orders);
    let mut o_clerk = Vec::with_capacity(n_orders);
    let mut o_ship = Vec::with_capacity(n_orders);
    let mut o_comment = Vec::with_capacity(n_orders);
    let mut l_order = Vec::new();
    let mut l_part = Vec::new();
    let mut l_supp = Vec::new();
    let mut l_line = Vec::new();
    let mut l_qty = Vec::new();
    let mut l_ext = Vec::new();
    let mut l_disc = Vec::new();
    let mut l_tax = Vec::new();
    let mut l_ret = Vec::new();
    let mut l_status = Vec::new();
    let mut l_shipd = Vec::new();
    let mut l_commitd = Vec::new();
    let mut l_receiptd = Vec::new();
    let mut l_instr = Vec::new();
    let mut l_mode = Vec::new();
    let mut l_comment = Vec::new();
    for i in 0..n_orders {
        let okey = (i as i64) * 4 + 1; // sparse keys like dbgen
        let odate = start + rng.gen_range(0..(end - start - 151));
        o_key.push(okey);
        o_cust.push(rng.gen_range(0..n_customer as i64) + 1);
        o_date.push(odate);
        o_prio.push(PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_string());
        o_clerk.push(format!("Clerk#{:09}", rng.gen_range(1..1000)));
        o_ship.push(0i64);
        let mut c = words(&mut rng, 5);
        if rng.gen_bool(0.01) {
            c = format!("{c} special requests {c}");
        }
        o_comment.push(c);
        let nlines = rng.gen_range(1..=7usize);
        let mut total = 0.0;
        let mut all_f = true;
        let mut any_f = false;
        for ln in 0..nlines {
            let qty = rng.gen_range(1..=50) as f64;
            let pk = rng.gen_range(0..n_part as i64) + 1;
            let price = qty * (90_000.0 + ((pk * 7) % 20_001) as f64 / 2.0) / 100.0;
            let disc = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let ship = odate + rng.gen_range(1..=121);
            let commit = odate + rng.gen_range(30..=90);
            let receipt = ship + rng.gen_range(1..=30);
            let today = date::parse("1995-06-17").unwrap();
            let (ret, status) = if receipt <= today {
                all_f = false;
                any_f = true;
                (if rng.gen_bool(0.25) { "R" } else { "A" }, "F")
            } else {
                ("N", "O")
            };
            l_order.push(okey);
            l_part.push(pk);
            l_supp.push(((pk as usize + ln * (n_supplier / 4 + 1)) % n_supplier) as i64 + 1);
            l_line.push(ln as i64 + 1);
            l_qty.push(qty);
            l_ext.push(price);
            l_disc.push(disc);
            l_tax.push(tax);
            l_ret.push(ret.to_string());
            l_status.push(status.to_string());
            l_shipd.push(ship);
            l_commitd.push(commit);
            l_receiptd.push(receipt);
            l_instr.push(SHIP_INSTRUCT[rng.gen_range(0..SHIP_INSTRUCT.len())].to_string());
            l_mode.push(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())].to_string());
            l_comment.push(words(&mut rng, 3));
            total += price * (1.0 - disc) * (1.0 + tax);
        }
        o_total.push(total);
        o_status.push(
            if all_f {
                "O"
            } else if any_f && !all_f {
                "F"
            } else {
                "P"
            }
            .to_string(),
        );
    }
    let orders = Relation::new(vec![
        ("o_orderkey".into(), Column::from_i64(o_key)),
        ("o_custkey".into(), Column::from_i64(o_cust)),
        ("o_orderstatus".into(), Column::from_str_vec(o_status)),
        ("o_totalprice".into(), Column::from_f64(o_total)),
        ("o_orderdate".into(), Column::from_dates(o_date)),
        ("o_orderpriority".into(), Column::from_str_vec(o_prio)),
        ("o_clerk".into(), Column::from_str_vec(o_clerk)),
        ("o_shippriority".into(), Column::from_i64(o_ship)),
        ("o_comment".into(), Column::from_str_vec(o_comment)),
    ])
    .unwrap();
    let lineitem = Relation::new(vec![
        ("l_orderkey".into(), Column::from_i64(l_order)),
        ("l_partkey".into(), Column::from_i64(l_part)),
        ("l_suppkey".into(), Column::from_i64(l_supp)),
        ("l_linenumber".into(), Column::from_i64(l_line)),
        ("l_quantity".into(), Column::from_f64(l_qty)),
        ("l_extendedprice".into(), Column::from_f64(l_ext)),
        ("l_discount".into(), Column::from_f64(l_disc)),
        ("l_tax".into(), Column::from_f64(l_tax)),
        ("l_returnflag".into(), Column::from_str_vec(l_ret)),
        ("l_linestatus".into(), Column::from_str_vec(l_status)),
        ("l_shipdate".into(), Column::from_dates(l_shipd)),
        ("l_commitdate".into(), Column::from_dates(l_commitd)),
        ("l_receiptdate".into(), Column::from_dates(l_receiptd)),
        ("l_shipinstruct".into(), Column::from_str_vec(l_instr)),
        ("l_shipmode".into(), Column::from_str_vec(l_mode)),
        ("l_comment".into(), Column::from_str_vec(l_comment)),
    ])
    .unwrap();

    TpchData {
        region,
        nation,
        supplier,
        part,
        partsupp,
        customer,
        orders,
        lineitem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(0.002);
        let b = generate(0.002);
        assert_eq!(a.lineitem.num_rows(), b.lineitem.num_rows());
        assert_eq!(
            a.lineitem.get(0, "l_extendedprice"),
            b.lineitem.get(0, "l_extendedprice")
        );
    }

    #[test]
    fn scale_factor_scales_row_counts() {
        let small = generate(0.001);
        let big = generate(0.004);
        assert!(big.orders.num_rows() > 2 * small.orders.num_rows());
        // lineitem ≈ 4 lines per order
        let ratio = big.lineitem.num_rows() as f64 / big.orders.num_rows() as f64;
        assert!(ratio > 2.0 && ratio < 6.0, "{ratio}");
    }

    #[test]
    fn referential_integrity_holds() {
        let d = generate(0.001);
        let n_cust = d.customer.num_rows() as i64;
        for i in 0..d.orders.num_rows() {
            let k = d.orders.get(i, "o_custkey").unwrap().as_i64().unwrap();
            assert!(k >= 1 && k <= n_cust);
        }
        let n_part = d.part.num_rows() as i64;
        for i in 0..d.lineitem.num_rows().min(500) {
            let k = d.lineitem.get(i, "l_partkey").unwrap().as_i64().unwrap();
            assert!(k >= 1 && k <= n_part);
        }
    }

    #[test]
    fn dates_cover_the_spec_range() {
        let d = generate(0.001);
        let lo = date::parse("1992-01-01").unwrap();
        let hi = date::parse("1998-12-31").unwrap();
        for i in 0..d.orders.num_rows() {
            match d.orders.get(i, "o_orderdate").unwrap() {
                pytond_common::Value::Date(x) => assert!(x >= lo && x <= hi),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn q12_relevant_modes_exist() {
        let d = generate(0.002);
        let modes = d.lineitem.column("l_shipmode").unwrap();
        let mut mail = false;
        let mut ship = false;
        for i in 0..modes.len() {
            match modes.get(i) {
                pytond_common::Value::Str(s) if s == "MAIL" => mail = true,
                pytond_common::Value::Str(s) if s == "SHIP" => ship = true,
                _ => {}
            }
        }
        assert!(mail && ship);
    }
}
