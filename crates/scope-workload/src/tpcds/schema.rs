//! The TPC-DS schema (24 tables) and deterministic data generation.
//!
//! Column lists are the subset the 99 translated queries touch; key
//! relationships (surrogate keys, foreign keys into `date_dim`, `item`,
//! `customer`, ...) are generated valid so joins actually match.

use rand::Rng;
use scope_common::hash::sip64;
use scope_common::ids::DatasetId;
use scope_engine::data::Table;
use scope_plan::{DataType, Schema, Value};

use crate::dists::rng_for;

/// The 24 TPC-DS tables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TpcdsTable {
    /// Store channel fact.
    StoreSales,
    /// Store channel returns fact.
    StoreReturns,
    /// Catalog channel fact.
    CatalogSales,
    /// Catalog channel returns fact.
    CatalogReturns,
    /// Web channel fact.
    WebSales,
    /// Web channel returns fact.
    WebReturns,
    /// Warehouse inventory fact.
    Inventory,
    /// Stores dimension.
    Store,
    /// Call centers dimension.
    CallCenter,
    /// Catalog pages dimension.
    CatalogPage,
    /// Web sites dimension.
    WebSite,
    /// Web pages dimension.
    WebPage,
    /// Warehouses dimension.
    Warehouse,
    /// Customers dimension.
    Customer,
    /// Customer addresses dimension.
    CustomerAddress,
    /// Customer demographics dimension.
    CustomerDemographics,
    /// Household demographics dimension.
    HouseholdDemographics,
    /// Items dimension.
    Item,
    /// Income bands dimension.
    IncomeBand,
    /// Promotions dimension.
    Promotion,
    /// Return reasons dimension.
    Reason,
    /// Ship modes dimension.
    ShipMode,
    /// Time-of-day dimension.
    TimeDim,
    /// Calendar dimension.
    DateDim,
}

/// All 24 tables.
pub const ALL_TABLES: [TpcdsTable; 24] = [
    TpcdsTable::StoreSales,
    TpcdsTable::StoreReturns,
    TpcdsTable::CatalogSales,
    TpcdsTable::CatalogReturns,
    TpcdsTable::WebSales,
    TpcdsTable::WebReturns,
    TpcdsTable::Inventory,
    TpcdsTable::Store,
    TpcdsTable::CallCenter,
    TpcdsTable::CatalogPage,
    TpcdsTable::WebSite,
    TpcdsTable::WebPage,
    TpcdsTable::Warehouse,
    TpcdsTable::Customer,
    TpcdsTable::CustomerAddress,
    TpcdsTable::CustomerDemographics,
    TpcdsTable::HouseholdDemographics,
    TpcdsTable::Item,
    TpcdsTable::IncomeBand,
    TpcdsTable::Promotion,
    TpcdsTable::Reason,
    TpcdsTable::ShipMode,
    TpcdsTable::TimeDim,
    TpcdsTable::DateDim,
];

impl TpcdsTable {
    /// The table's stream name in the store (stable; TPC-DS data is static,
    /// so the "recurring GUID" never changes — the paper's "static
    /// computations" case).
    pub fn stream_name(self) -> &'static str {
        match self {
            TpcdsTable::StoreSales => "tpcds/store_sales.ss",
            TpcdsTable::StoreReturns => "tpcds/store_returns.ss",
            TpcdsTable::CatalogSales => "tpcds/catalog_sales.ss",
            TpcdsTable::CatalogReturns => "tpcds/catalog_returns.ss",
            TpcdsTable::WebSales => "tpcds/web_sales.ss",
            TpcdsTable::WebReturns => "tpcds/web_returns.ss",
            TpcdsTable::Inventory => "tpcds/inventory.ss",
            TpcdsTable::Store => "tpcds/store.ss",
            TpcdsTable::CallCenter => "tpcds/call_center.ss",
            TpcdsTable::CatalogPage => "tpcds/catalog_page.ss",
            TpcdsTable::WebSite => "tpcds/web_site.ss",
            TpcdsTable::WebPage => "tpcds/web_page.ss",
            TpcdsTable::Warehouse => "tpcds/warehouse.ss",
            TpcdsTable::Customer => "tpcds/customer.ss",
            TpcdsTable::CustomerAddress => "tpcds/customer_address.ss",
            TpcdsTable::CustomerDemographics => "tpcds/customer_demographics.ss",
            TpcdsTable::HouseholdDemographics => "tpcds/household_demographics.ss",
            TpcdsTable::Item => "tpcds/item.ss",
            TpcdsTable::IncomeBand => "tpcds/income_band.ss",
            TpcdsTable::Promotion => "tpcds/promotion.ss",
            TpcdsTable::Reason => "tpcds/reason.ss",
            TpcdsTable::ShipMode => "tpcds/ship_mode.ss",
            TpcdsTable::TimeDim => "tpcds/time_dim.ss",
            TpcdsTable::DateDim => "tpcds/date_dim.ss",
        }
    }

    /// Base row count at scale 1.0.
    pub fn base_rows(self) -> u64 {
        match self {
            TpcdsTable::StoreSales => 24_000,
            TpcdsTable::StoreReturns => 2_400,
            TpcdsTable::CatalogSales => 14_000,
            TpcdsTable::CatalogReturns => 1_400,
            TpcdsTable::WebSales => 7_000,
            TpcdsTable::WebReturns => 700,
            TpcdsTable::Inventory => 6_000,
            TpcdsTable::Store => 12,
            TpcdsTable::CallCenter => 6,
            TpcdsTable::CatalogPage => 60,
            TpcdsTable::WebSite => 6,
            TpcdsTable::WebPage => 20,
            TpcdsTable::Warehouse => 5,
            TpcdsTable::Customer => 2_000,
            TpcdsTable::CustomerAddress => 1_000,
            TpcdsTable::CustomerDemographics => 400,
            TpcdsTable::HouseholdDemographics => 144,
            TpcdsTable::Item => 600,
            TpcdsTable::IncomeBand => 20,
            TpcdsTable::Promotion => 30,
            TpcdsTable::Reason => 10,
            TpcdsTable::ShipMode => 8,
            TpcdsTable::TimeDim => 288,
            TpcdsTable::DateDim => 1_461, // 4 years, 1998-01-01..2001-12-31
        }
    }

    /// Dimensions never scale below their base (joins must keep matching).
    fn scaled_rows(self, scale: f64) -> u64 {
        match self {
            TpcdsTable::StoreSales
            | TpcdsTable::StoreReturns
            | TpcdsTable::CatalogSales
            | TpcdsTable::CatalogReturns
            | TpcdsTable::WebSales
            | TpcdsTable::WebReturns
            | TpcdsTable::Inventory => ((self.base_rows() as f64 * scale).round() as u64).max(50),
            _ => self.base_rows(),
        }
    }
}

/// Stable dataset GUID for a table (static data ⇒ static GUID).
pub fn dataset_id(table: TpcdsTable) -> DatasetId {
    DatasetId::new(sip64(table.stream_name().as_bytes()))
}

/// Schema of one table.
pub fn table_schema(table: TpcdsTable) -> Schema {
    use DataType::*;
    let cols: &[(&str, DataType)] = match table {
        TpcdsTable::StoreSales => &[
            ("ss_sold_date_sk", Int),
            ("ss_item_sk", Int),
            ("ss_customer_sk", Int),
            ("ss_store_sk", Int),
            ("ss_cdemo_sk", Int),
            ("ss_hdemo_sk", Int),
            ("ss_addr_sk", Int),
            ("ss_promo_sk", Int),
            ("ss_quantity", Int),
            ("ss_sales_price", Float),
            ("ss_ext_sales_price", Float),
            ("ss_net_profit", Float),
        ],
        TpcdsTable::StoreReturns => &[
            ("sr_returned_date_sk", Int),
            ("sr_item_sk", Int),
            ("sr_customer_sk", Int),
            ("sr_store_sk", Int),
            ("sr_reason_sk", Int),
            ("sr_return_quantity", Int),
            ("sr_return_amt", Float),
        ],
        TpcdsTable::CatalogSales => &[
            ("cs_sold_date_sk", Int),
            ("cs_item_sk", Int),
            ("cs_bill_customer_sk", Int),
            ("cs_call_center_sk", Int),
            ("cs_warehouse_sk", Int),
            ("cs_ship_mode_sk", Int),
            ("cs_promo_sk", Int),
            ("cs_quantity", Int),
            ("cs_sales_price", Float),
            ("cs_ext_sales_price", Float),
            ("cs_net_profit", Float),
        ],
        TpcdsTable::CatalogReturns => &[
            ("cr_returned_date_sk", Int),
            ("cr_item_sk", Int),
            ("cr_returning_customer_sk", Int),
            ("cr_call_center_sk", Int),
            ("cr_reason_sk", Int),
            ("cr_return_quantity", Int),
            ("cr_return_amount", Float),
        ],
        TpcdsTable::WebSales => &[
            ("ws_sold_date_sk", Int),
            ("ws_item_sk", Int),
            ("ws_bill_customer_sk", Int),
            ("ws_web_site_sk", Int),
            ("ws_web_page_sk", Int),
            ("ws_ship_mode_sk", Int),
            ("ws_promo_sk", Int),
            ("ws_quantity", Int),
            ("ws_sales_price", Float),
            ("ws_ext_sales_price", Float),
            ("ws_net_profit", Float),
        ],
        TpcdsTable::WebReturns => &[
            ("wr_returned_date_sk", Int),
            ("wr_item_sk", Int),
            ("wr_returning_customer_sk", Int),
            ("wr_web_page_sk", Int),
            ("wr_reason_sk", Int),
            ("wr_return_quantity", Int),
            ("wr_return_amt", Float),
        ],
        TpcdsTable::Inventory => &[
            ("inv_date_sk", Int),
            ("inv_item_sk", Int),
            ("inv_warehouse_sk", Int),
            ("inv_quantity_on_hand", Int),
        ],
        TpcdsTable::Store => &[
            ("s_store_sk", Int),
            ("s_store_name", Str),
            ("s_county", Str),
            ("s_state", Str),
        ],
        TpcdsTable::CallCenter => &[
            ("cc_call_center_sk", Int),
            ("cc_name", Str),
            ("cc_county", Str),
        ],
        TpcdsTable::CatalogPage => &[("cp_catalog_page_sk", Int), ("cp_catalog_page_number", Int)],
        TpcdsTable::WebSite => &[("web_site_sk", Int), ("web_name", Str)],
        TpcdsTable::WebPage => &[("wp_web_page_sk", Int), ("wp_char_count", Int)],
        TpcdsTable::Warehouse => &[
            ("w_warehouse_sk", Int),
            ("w_warehouse_name", Str),
            ("w_state", Str),
        ],
        TpcdsTable::Customer => &[
            ("c_customer_sk", Int),
            ("c_current_addr_sk", Int),
            ("c_current_cdemo_sk", Int),
            ("c_current_hdemo_sk", Int),
            ("c_birth_year", Int),
        ],
        TpcdsTable::CustomerAddress => &[
            ("ca_address_sk", Int),
            ("ca_city", Str),
            ("ca_state", Str),
            ("ca_country", Str),
            ("ca_gmt_offset", Int),
        ],
        TpcdsTable::CustomerDemographics => &[
            ("cd_demo_sk", Int),
            ("cd_gender", Str),
            ("cd_marital_status", Str),
            ("cd_education_status", Str),
        ],
        TpcdsTable::HouseholdDemographics => &[
            ("hd_demo_sk", Int),
            ("hd_income_band_sk", Int),
            ("hd_dep_count", Int),
            ("hd_buy_potential", Str),
        ],
        TpcdsTable::Item => &[
            ("i_item_sk", Int),
            ("i_brand_id", Int),
            ("i_class", Str),
            ("i_category", Str),
            ("i_manufact_id", Int),
            ("i_current_price", Float),
        ],
        TpcdsTable::IncomeBand => &[
            ("ib_income_band_sk", Int),
            ("ib_lower_bound", Int),
            ("ib_upper_bound", Int),
        ],
        TpcdsTable::Promotion => &[
            ("p_promo_sk", Int),
            ("p_channel_email", Str),
            ("p_channel_event", Str),
        ],
        TpcdsTable::Reason => &[("r_reason_sk", Int), ("r_reason_desc", Str)],
        TpcdsTable::ShipMode => &[("sm_ship_mode_sk", Int), ("sm_type", Str)],
        TpcdsTable::TimeDim => &[("t_time_sk", Int), ("t_hour", Int), ("t_minute", Int)],
        TpcdsTable::DateDim => &[
            ("d_date_sk", Int),
            ("d_year", Int),
            ("d_moy", Int),
            ("d_dom", Int),
            ("d_qoy", Int),
            ("d_day_name", Str),
        ],
    };
    Schema::from_pairs(cols)
}

const CATEGORIES: [&str; 6] = ["Books", "Electronics", "Home", "Jewelry", "Music", "Sports"];
const CLASSES: [&str; 5] = ["accent", "classic", "estate", "pop", "field"];
const STATES: [&str; 8] = ["CA", "GA", "IL", "NY", "OH", "TX", "WA", "TN"];
const GENDERS: [&str; 2] = ["M", "F"];
const MARITAL: [&str; 5] = ["S", "M", "D", "W", "U"];
const EDUCATION: [&str; 4] = ["Primary", "College", "2 yr Degree", "Advanced Degree"];
const BUY_POTENTIAL: [&str; 4] = [">10000", "5001-10000", "1001-5000", "0-500"];
const DAY_NAMES: [&str; 7] = [
    "Sunday",
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
];

/// Generates one table deterministically at the given scale.
pub fn generate_table(table: TpcdsTable, scale: f64, seed: u64) -> Table {
    let rows = table.scaled_rows(scale);
    let mut rng = rng_for(seed, table.stream_name());
    let n_item = TpcdsTable::Item.base_rows() as i64;
    let n_cust = TpcdsTable::Customer.base_rows() as i64;
    let n_date = TpcdsTable::DateDim.base_rows() as i64;
    let n_store = TpcdsTable::Store.base_rows() as i64;
    let n_cdemo = TpcdsTable::CustomerDemographics.base_rows() as i64;
    let n_hdemo = TpcdsTable::HouseholdDemographics.base_rows() as i64;
    let n_addr = TpcdsTable::CustomerAddress.base_rows() as i64;
    let n_promo = TpcdsTable::Promotion.base_rows() as i64;
    let n_wh = TpcdsTable::Warehouse.base_rows() as i64;
    let n_cc = TpcdsTable::CallCenter.base_rows() as i64;
    let n_site = TpcdsTable::WebSite.base_rows() as i64;
    let n_page = TpcdsTable::WebPage.base_rows() as i64;
    let n_ship = TpcdsTable::ShipMode.base_rows() as i64;
    let n_reason = TpcdsTable::Reason.base_rows() as i64;

    let mut data: Vec<Vec<Value>> = Vec::with_capacity(rows as usize);
    for i in 0..rows as i64 {
        let row: Vec<Value> = match table {
            TpcdsTable::StoreSales => {
                let qty = rng.gen_range(1..100);
                let price = rng.gen_range(1.0_f64..100.0);
                vec![
                    Value::Int(rng.gen_range(0..n_date)),
                    Value::Int(rng.gen_range(0..n_item)),
                    Value::Int(rng.gen_range(0..n_cust)),
                    Value::Int(rng.gen_range(0..n_store)),
                    Value::Int(rng.gen_range(0..n_cdemo)),
                    Value::Int(rng.gen_range(0..n_hdemo)),
                    Value::Int(rng.gen_range(0..n_addr)),
                    Value::Int(rng.gen_range(0..n_promo)),
                    Value::Int(qty),
                    Value::Float(price),
                    Value::Float(price * qty as f64),
                    Value::Float(rng.gen_range(-20.0_f64..80.0)),
                ]
            }
            TpcdsTable::StoreReturns => vec![
                Value::Int(rng.gen_range(0..n_date)),
                Value::Int(rng.gen_range(0..n_item)),
                Value::Int(rng.gen_range(0..n_cust)),
                Value::Int(rng.gen_range(0..n_store)),
                Value::Int(rng.gen_range(0..n_reason)),
                Value::Int(rng.gen_range(1..20)),
                Value::Float(rng.gen_range(1.0_f64..500.0)),
            ],
            TpcdsTable::CatalogSales => {
                let qty = rng.gen_range(1..100);
                let price = rng.gen_range(1.0_f64..100.0);
                vec![
                    Value::Int(rng.gen_range(0..n_date)),
                    Value::Int(rng.gen_range(0..n_item)),
                    Value::Int(rng.gen_range(0..n_cust)),
                    Value::Int(rng.gen_range(0..n_cc)),
                    Value::Int(rng.gen_range(0..n_wh)),
                    Value::Int(rng.gen_range(0..n_ship)),
                    Value::Int(rng.gen_range(0..n_promo)),
                    Value::Int(qty),
                    Value::Float(price),
                    Value::Float(price * qty as f64),
                    Value::Float(rng.gen_range(-20.0_f64..80.0)),
                ]
            }
            TpcdsTable::CatalogReturns => vec![
                Value::Int(rng.gen_range(0..n_date)),
                Value::Int(rng.gen_range(0..n_item)),
                Value::Int(rng.gen_range(0..n_cust)),
                Value::Int(rng.gen_range(0..n_cc)),
                Value::Int(rng.gen_range(0..n_reason)),
                Value::Int(rng.gen_range(1..20)),
                Value::Float(rng.gen_range(1.0_f64..500.0)),
            ],
            TpcdsTable::WebSales => {
                let qty = rng.gen_range(1..100);
                let price = rng.gen_range(1.0_f64..100.0);
                vec![
                    Value::Int(rng.gen_range(0..n_date)),
                    Value::Int(rng.gen_range(0..n_item)),
                    Value::Int(rng.gen_range(0..n_cust)),
                    Value::Int(rng.gen_range(0..n_site)),
                    Value::Int(rng.gen_range(0..n_page)),
                    Value::Int(rng.gen_range(0..n_ship)),
                    Value::Int(rng.gen_range(0..n_promo)),
                    Value::Int(qty),
                    Value::Float(price),
                    Value::Float(price * qty as f64),
                    Value::Float(rng.gen_range(-20.0_f64..80.0)),
                ]
            }
            TpcdsTable::WebReturns => vec![
                Value::Int(rng.gen_range(0..n_date)),
                Value::Int(rng.gen_range(0..n_item)),
                Value::Int(rng.gen_range(0..n_cust)),
                Value::Int(rng.gen_range(0..n_page)),
                Value::Int(rng.gen_range(0..n_reason)),
                Value::Int(rng.gen_range(1..20)),
                Value::Float(rng.gen_range(1.0_f64..500.0)),
            ],
            TpcdsTable::Inventory => vec![
                Value::Int(rng.gen_range(0..n_date)),
                Value::Int(rng.gen_range(0..n_item)),
                Value::Int(rng.gen_range(0..n_wh)),
                Value::Int(rng.gen_range(0..1000)),
            ],
            TpcdsTable::Store => vec![
                Value::Int(i),
                Value::Str(format!("store_{i}")),
                Value::Str(format!("county_{}", i % 5)),
                Value::Str(STATES[i as usize % STATES.len()].into()),
            ],
            TpcdsTable::CallCenter => vec![
                Value::Int(i),
                Value::Str(format!("cc_{i}")),
                Value::Str(format!("county_{}", i % 3)),
            ],
            TpcdsTable::CatalogPage => vec![Value::Int(i), Value::Int(i % 12)],
            TpcdsTable::WebSite => vec![Value::Int(i), Value::Str(format!("site_{i}"))],
            TpcdsTable::WebPage => vec![Value::Int(i), Value::Int(rng.gen_range(100..8000))],
            TpcdsTable::Warehouse => vec![
                Value::Int(i),
                Value::Str(format!("wh_{i}")),
                Value::Str(STATES[i as usize % STATES.len()].into()),
            ],
            TpcdsTable::Customer => vec![
                Value::Int(i),
                Value::Int(rng.gen_range(0..n_addr)),
                Value::Int(rng.gen_range(0..n_cdemo)),
                Value::Int(rng.gen_range(0..n_hdemo)),
                Value::Int(rng.gen_range(1930..1995)),
            ],
            TpcdsTable::CustomerAddress => vec![
                Value::Int(i),
                Value::Str(format!("city_{}", i % 40)),
                Value::Str(STATES[i as usize % STATES.len()].into()),
                Value::Str("United States".into()),
                Value::Int(-(rng.gen_range(5..9))),
            ],
            TpcdsTable::CustomerDemographics => vec![
                Value::Int(i),
                Value::Str(GENDERS[i as usize % 2].into()),
                Value::Str(MARITAL[i as usize % MARITAL.len()].into()),
                Value::Str(EDUCATION[i as usize % EDUCATION.len()].into()),
            ],
            TpcdsTable::HouseholdDemographics => vec![
                Value::Int(i),
                Value::Int(i % TpcdsTable::IncomeBand.base_rows() as i64),
                Value::Int(i % 10),
                Value::Str(BUY_POTENTIAL[i as usize % BUY_POTENTIAL.len()].into()),
            ],
            TpcdsTable::Item => vec![
                Value::Int(i),
                Value::Int(1_000_000 + (i % 50) * 1000),
                Value::Str(CLASSES[i as usize % CLASSES.len()].into()),
                Value::Str(CATEGORIES[i as usize % CATEGORIES.len()].into()),
                Value::Int(i % 100),
                Value::Float(rng.gen_range(0.5_f64..300.0)),
            ],
            TpcdsTable::IncomeBand => vec![
                Value::Int(i),
                Value::Int(i * 10_000),
                Value::Int((i + 1) * 10_000),
            ],
            TpcdsTable::Promotion => vec![
                Value::Int(i),
                Value::Str(if i % 2 == 0 { "Y" } else { "N" }.into()),
                Value::Str(if i % 3 == 0 { "Y" } else { "N" }.into()),
            ],
            TpcdsTable::Reason => vec![Value::Int(i), Value::Str(format!("reason_{i}"))],
            TpcdsTable::ShipMode => vec![
                Value::Int(i),
                Value::Str(["EXPRESS", "OVERNIGHT", "REGULAR", "LIBRARY"][i as usize % 4].into()),
            ],
            TpcdsTable::TimeDim => {
                vec![Value::Int(i), Value::Int(i / 12), Value::Int((i % 12) * 5)]
            }
            TpcdsTable::DateDim => {
                // 1461 days starting 1998-01-01; simplified calendar.
                let year = 1998 + i / 365;
                let doy = i % 365;
                vec![
                    Value::Int(i),
                    Value::Int(year),
                    Value::Int(doy / 31 + 1),
                    Value::Int(doy % 31 + 1),
                    Value::Int(doy / 92 + 1),
                    Value::Str(DAY_NAMES[i as usize % 7].into()),
                ]
            }
        };
        data.push(row);
    }
    Table::single(table_schema(table), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_have_unique_prefixed_names() {
        for t in ALL_TABLES {
            let s = table_schema(t);
            assert!(s.len() >= 2, "{t:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_table(TpcdsTable::StoreSales, 0.01, 7);
        let b = generate_table(TpcdsTable::StoreSales, 0.01, 7);
        assert_eq!(
            scope_engine::data::multiset_checksum(&a),
            scope_engine::data::multiset_checksum(&b)
        );
        let c = generate_table(TpcdsTable::StoreSales, 0.01, 8);
        assert_ne!(
            scope_engine::data::multiset_checksum(&a),
            scope_engine::data::multiset_checksum(&c)
        );
    }

    #[test]
    fn foreign_keys_in_range() {
        let ss = generate_table(TpcdsTable::StoreSales, 0.02, 1);
        let n_date = TpcdsTable::DateDim.base_rows() as i64;
        let n_item = TpcdsTable::Item.base_rows() as i64;
        for row in ss.all_rows() {
            let d = row[0].as_i64().unwrap();
            let it = row[1].as_i64().unwrap();
            assert!((0..n_date).contains(&d));
            assert!((0..n_item).contains(&it));
        }
    }

    #[test]
    fn date_dim_years_span_1998_2001() {
        let dd = generate_table(TpcdsTable::DateDim, 1.0, 1);
        let years: std::collections::HashSet<i64> = dd
            .all_rows()
            .iter()
            .map(|r| r[1].as_i64().unwrap())
            .collect();
        assert!(years.contains(&1998) && years.contains(&2001));
        let moys: std::collections::HashSet<i64> = dd
            .all_rows()
            .iter()
            .map(|r| r[2].as_i64().unwrap())
            .collect();
        assert!(moys.iter().all(|m| (1..=12).contains(m)));
    }

    #[test]
    fn dims_do_not_scale_down() {
        let item_small = generate_table(TpcdsTable::Item, 0.001, 1);
        assert_eq!(item_small.num_rows() as u64, TpcdsTable::Item.base_rows());
    }

    #[test]
    fn dataset_ids_distinct() {
        let mut ids: Vec<_> = ALL_TABLES.iter().map(|t| dataset_id(*t)).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), ALL_TABLES.len());
    }

    #[test]
    fn rows_match_schema_width() {
        for t in ALL_TABLES {
            let table = generate_table(t, 0.01, 1);
            let w = table.schema.len();
            for row in table.all_rows().into_iter().take(5) {
                assert_eq!(row.len(), w, "{t:?}");
            }
        }
    }
}
