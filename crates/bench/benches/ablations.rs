//! Prints the ablation report, then benchmarks the mechanisms the
//! ablations vary (policies, prefetch bookkeeping, market billing).

use criterion::{criterion_group, criterion_main, Criterion};
use epcm_bench::ablations::{self, SweepScale};
use epcm_bench::pool::ScenarioPool;
use epcm_core::types::ManagerId;
use epcm_managers::market::dram_frames;
use epcm_managers::policy::{ClockPolicy, Probe, ReplacementPolicy};
use epcm_managers::{MarketConfig, MemoryMarket};
use epcm_sim::clock::Timestamp;

fn bench(c: &mut Criterion) {
    let report = ablations::results_with(&ScenarioPool::serial(), SweepScale::Quick);
    println!("{}", ablations::render(&report));

    c.bench_function("clock_policy_victim_selection", |b| {
        let mut clock = ClockPolicy::new();
        let seg = epcm_core::SegmentId::FRAME_POOL;
        for p in 0..1024u64 {
            clock.note_resident(seg, p.into());
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let victim = clock.select_victim(&mut |_, p| {
                if p.as_u64() % 7 == i % 7 {
                    Probe::Referenced
                } else {
                    Probe::NotReferenced
                }
            });
            if let Some((s, p)) = victim {
                clock.note_resident(s, p); // keep the ring populated
            }
        });
    });

    c.bench_function("rle_compress_4k_page", |b| {
        let page: Vec<u8> = (0..4096).map(|i| (i / 512) as u8).collect();
        b.iter(|| epcm_managers::compress::rle_compress(&page));
    });

    c.bench_function("relation_index_join_64x2048", |b| {
        use epcm_dbms::relation::{index_join, Record, Relation};
        let mut m = epcm_managers::Machine::with_default_manager(4096);
        let left: Vec<Record> = (0..64).map(|i| Record::numbered(i * 5, i)).collect();
        let right: Vec<Record> = (0..2048).map(|i| Record::numbered(i, i)).collect();
        let l = Relation::create(&mut m, &left).unwrap();
        let r = Relation::create(&mut m, &right).unwrap();
        let idx = r.build_index(&mut m).unwrap();
        b.iter(|| index_join(&mut m, &l, &r, &idx).unwrap());
    });

    c.bench_function("market_billing_64_accounts", |b| {
        let mut market = MemoryMarket::new(MarketConfig::default());
        let holdings: Vec<_> = (0..64)
            .map(|i| (ManagerId(i), dram_frames(256 + i as u64)))
            .collect();
        for &(m, _) in &holdings {
            market.open_account(m, None);
        }
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000;
            market.bill(Timestamp::from_micros(t), &holdings, true, None)
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
