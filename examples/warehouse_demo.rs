//! The data-warehouse architecture of paper §5 (Figure 6), live:
//! two autonomous sources churn concurrently; their monitors feed the
//! warehouse through a threaded channel integrator; the warehouse
//! maintains one view per source and reports its communication costs
//! under the §5.1/§5.2 query-reduction techniques.
//!
//! ```text
//! cargo run --example warehouse_demo
//! ```

use gsview::gsdb::{Oid, StoreConfig};
use gsview::query::{CmpOp, Pred};
use gsview::views::SimpleViewDef;
use gsview::warehouse::{spawn_channel_integrator, ReportLevel, Source, ViewOptions, Warehouse};
use gsview::workload::{relations, relations_churn, ChurnSpec, RelationsSpec};

fn make_source(
    name: &str,
    level: ReportLevel,
    seed: u64,
) -> (Source, Vec<gsview::workload::ScriptOp>) {
    let (store, mut db) = relations::generate(
        RelationsSpec {
            relations: 2,
            tuples_per_relation: 500,
            extra_fields: 2,
            age_range: 60,
            seed,
        },
        StoreConfig::default(),
    )
    .expect("generate");
    let script = relations_churn(
        &mut db,
        ChurnSpec {
            ops: 400,
            modify_weight: 2,
            field_modify_weight: 0,
            insert_weight: 1,
            delete_weight: 1,
            target_bias: 0.6,
            age_range: 60,
            seed: seed + 1,
        },
    );
    (Source::new(name, Oid::new("REL"), store, level), script)
}

fn main() {
    // Source alpha reports rich L3 updates; source beta only OIDs.
    let (alpha, alpha_script) = make_source("alpha", ReportLevel::WithPaths, 100);
    let (beta, beta_script) = make_source("beta", ReportLevel::OidsOnly, 200);
    println!("sources: alpha (L3 +paths, cached view), beta (L1 OIDs-only)");

    let mut wh = Warehouse::new();
    wh.connect(&alpha);
    wh.connect(&beta);
    let def = |v: &str| {
        SimpleViewDef::new(v, "REL", "r0.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64))
    };
    wh.add_view(
        "alpha",
        def("ALPHA_SEL"),
        ViewOptions {
            use_aux_cache: true,
            label_screening: true,
            ..ViewOptions::default()
        },
    )
    .expect("alpha view");
    wh.add_view("beta", def("BETA_SEL"), ViewOptions::default())
        .expect("beta view");
    wh.meter("alpha").expect("meter").reset();
    wh.meter("beta").expect("meter").reset();

    // Source driver threads churn their stores concurrently; monitor
    // pump threads feed reports into one channel.
    let a2 = alpha.clone();
    let b2 = beta.clone();
    let driver_a = std::thread::spawn(move || {
        for op in &alpha_script {
            a2.with_store(|s| op.replay(s)).expect("alpha op");
        }
    });
    let driver_b = std::thread::spawn(move || {
        for op in &beta_script {
            b2.with_store(|s| op.replay(s)).expect("beta op");
        }
    });
    driver_a.join().expect("alpha driver");
    driver_b.join().expect("beta driver");

    let (rx, pumps) = spawn_channel_integrator(vec![alpha.monitor(), beta.monitor()], 3);
    let mut reports: Vec<_> = rx.iter().collect();
    for p in pumps {
        p.join().expect("pump");
    }
    // Keep per-source order (already sequential per source).
    reports.sort_by_key(|r| (r.source.clone(), r.seq));
    let total = reports.len();
    for r in &reports {
        wh.handle_report(&r.clone()).expect("maintain");
    }
    println!("integrator delivered {total} update reports");

    // Batch delivery can drift (the §5.1 anomaly); reconcile.
    for view in ["ALPHA_SEL", "BETA_SEL"] {
        let resync = wh.resync_view(Oid::new(view)).expect("resync");
        assert!(resync.healed, "{view} did not heal");
    }

    for (name, view) in [("alpha", "ALPHA_SEL"), ("beta", "BETA_SEL")] {
        let meter = wh.meter(name).expect("meter");
        let stats = wh.view_stats(Oid::new(view)).expect("stats");
        println!("\nsource {name} / view {view}:");
        println!(
            "  members now      : {}",
            wh.view(Oid::new(view)).expect("view").len()
        );
        println!("  reports processed: {}", stats.reports);
        println!("  screened out     : {}", stats.screened_out);
        println!("  relevant         : {}", stats.relevant);
        println!(
            "  queries to source: {} ({} messages, {} bytes)",
            meter.queries(),
            meter.messages(),
            meter.bytes()
        );
    }
    let qa = wh.meter("alpha").expect("meter").queries().max(1);
    let qb = wh.meter("beta").expect("meter").queries().max(1);
    println!(
        "\nRich L3 reports + the §5.2 cache + screening cut alpha's query-backs \
         to {:.0}% of beta's. (Batched delivery blunts the cache further — \
         reports arrive after the source has moved on, the §5.1 anomaly; with \
         per-update delivery alpha runs query-free, as `cargo run -p \
         gsview-bench --bin harness -- e5` shows.)",
        100.0 * qa as f64 / qb as f64
    );
}
