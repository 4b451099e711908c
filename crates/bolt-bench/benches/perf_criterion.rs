//! Criterion micro-benchmarks for the reproduction's own algorithms:
//! encoder/decoder throughput, block-layout algorithms, HFSort
//! clustering, flow repair, the cache simulator, and the emulation
//! engine tiers (step / superblock / uop).

use bolt_bench::*;
use bolt_compiler::CompileOptions;
use bolt_emu::{BlockEvent, Engine, Machine, MemRecord, NullSink, TraceSink};
use bolt_hfsort::{hfsort, hfsort_plus, pettis_hansen, CallGraph};
use bolt_passes::layout::{reorder_function, BlockLayout};
use bolt_profile::repair_flow;
use bolt_sim::{Cache, CpuModel, SimConfig};
use bolt_workloads::{Scale, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// An ALU-dense loop for the lazy-vs-eager flags comparison: a
/// 24-instruction body where *every* instruction writes flags and none
/// reads them — only the loop-back `jne` consumes the final `sub`'s
/// result. Eager engines pay the flags math 24 times per iteration;
/// the uop tier's liveness pass pays it once.
fn alu_dense_elf(iters: i64) -> bolt_elf::Elf {
    use bolt_isa::{encode_at, AluOp, Cond, Inst, JumpWidth, Reg, Target};
    let mut insts = vec![
        Inst::MovRI {
            dst: Reg::Rdx,
            imm: 7,
        },
        Inst::MovRI {
            dst: Reg::Rbx,
            imm: 3,
        },
        Inst::MovRI {
            dst: Reg::Rcx,
            imm: iters.max(1),
        },
    ];
    let loop_head = insts.len();
    for k in 0..8i32 {
        insts.push(Inst::AluI {
            op: AluOp::Add,
            dst: Reg::Rdx,
            imm: k + 1,
        });
        insts.push(Inst::AluI {
            op: AluOp::Xor,
            dst: Reg::Rbx,
            imm: 0x55,
        });
        insts.push(Inst::AluI {
            op: AluOp::And,
            dst: Reg::Rdx,
            imm: 0xFFFF,
        });
    }
    insts.push(Inst::AluI {
        op: AluOp::Sub,
        dst: Reg::Rcx,
        imm: 1,
    });
    let jcc_at = insts.len();
    insts.push(Inst::Jcc {
        cond: Cond::Ne,
        target: Target::Addr(0), // patched below
        width: JumpWidth::Near,
    });
    insts.push(Inst::MovRI {
        dst: Reg::Rax,
        imm: 60,
    });
    insts.push(Inst::MovRI {
        dst: Reg::Rdi,
        imm: 0,
    });
    insts.push(Inst::Syscall);

    let base = 0x400000u64;
    let mut addrs = Vec::with_capacity(insts.len());
    let mut at = base;
    for i in &insts {
        addrs.push(at);
        at += bolt_isa::encoded_len(i) as u64;
    }
    if let Inst::Jcc { target, .. } = &mut insts[jcc_at] {
        *target = Target::Addr(addrs[loop_head]);
    }
    let mut code = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        code.extend(encode_at(inst, addrs[i]).expect("encodes").bytes);
    }
    let mut elf = bolt_elf::Elf::new(base);
    elf.sections
        .push(bolt_elf::Section::code(".text", base, code));
    elf
}

/// A mid-sized disassembled context to exercise pass algorithms.
fn sample_ctx() -> bolt_ir::BinaryContext {
    let program = Workload::Proxygen.build(Scale::Test);
    let elf = build(&program, &CompileOptions::default());
    let (profile, _) = profile_lbr(&elf, &SimConfig::small());
    let (mut ctx, raw) = bolt_opt::discover(&elf);
    bolt_opt::disassemble_all(&mut ctx, &raw, &elf);
    bolt_profile::attach_profile(&mut ctx, &profile);
    ctx
}

fn bench_codec(c: &mut Criterion) {
    let program = Workload::Tao.build(Scale::Test);
    let elf = build(&program, &CompileOptions::default());
    let text = elf.section(".text").unwrap();
    c.bench_function("decode_text_section", |b| {
        b.iter(|| {
            let decoded = bolt_isa::decode_all(black_box(&text.data), text.addr).unwrap();
            black_box(decoded.len())
        })
    });
    let decoded = bolt_isa::decode_all(&text.data, text.addr).unwrap();
    c.bench_function("encode_text_section", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for (off, d) in &decoded {
                let enc = bolt_isa::encode_at(&d.inst, text.addr + off).unwrap();
                bytes += enc.bytes.len();
            }
            black_box(bytes)
        })
    });
}

fn bench_layout(c: &mut Criterion) {
    let ctx = sample_ctx();
    let hot = ctx
        .functions
        .iter()
        .filter(|f| f.is_simple && f.num_live_blocks() > 4)
        .max_by_key(|f| f.exec_count)
        .expect("a hot function")
        .clone();
    for (name, algo) in [
        ("layout_pettis_hansen", BlockLayout::Branch),
        ("layout_ext_tsp", BlockLayout::CachePlus),
    ] {
        let f = hot.clone();
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut g = f.clone();
                reorder_function(&mut g, algo);
                black_box(g.layout.len())
            })
        });
    }
    c.bench_function("flow_repair", |b| {
        b.iter(|| {
            let mut g = hot.clone();
            repair_flow(&mut g);
            black_box(g.total_edge_count())
        })
    });
}

fn bench_hfsort(c: &mut Criterion) {
    // A synthetic 2000-node call graph.
    let mut cg = CallGraph::new();
    for i in 0..2000usize {
        cg.add_node(
            format!("f{i}"),
            64 + (i as u64 % 512),
            (i as u64 * 7919) % 10_000,
        );
    }
    for i in 0..2000usize {
        cg.add_edge(i, (i * 13 + 7) % 2000, (i as u64 * 31) % 5000 + 1);
        cg.add_edge(i, (i * 5 + 3) % 2000, (i as u64 * 17) % 800 + 1);
    }
    c.bench_function("hfsort_c3_2000", |b| {
        b.iter(|| black_box(hfsort(&cg)).len())
    });
    c.bench_function("hfsort_plus_2000", |b| {
        b.iter(|| black_box(hfsort_plus(&cg)).len())
    });
    c.bench_function("pettis_hansen_2000", |b| {
        b.iter(|| black_box(pettis_hansen(&cg)).len())
    });
}

fn bench_cache_sim(c: &mut Criterion) {
    c.bench_function("cache_sim_1m_accesses", |b| {
        b.iter(|| {
            let mut cache = Cache::new(32 << 10, 8, 64);
            let mut h = 0u64;
            for i in 0..1_000_000u64 {
                h ^= u64::from(cache.access((i * 2654435761) & 0xF_FFFF));
            }
            black_box(h)
        })
    });
    // A hit on a set's most recently used way — one compare, no state
    // change — is what nearly every access of an emulated program is.
    // Here: consecutive same-line accesses (a hot loop's data, a basic
    // block's fetches).
    c.bench_function("cache_sim_1m_mru_way_hits", |b| {
        b.iter(|| {
            let mut cache = Cache::new(32 << 10, 8, 64);
            let mut h = 0u64;
            for i in 0..1_000_000u64 {
                // 64 consecutive accesses per line before moving on.
                h ^= u64::from(cache.access((i / 64 * 64) & 0xF_FFFF));
            }
            black_box(h)
        })
    });
    // The same hit when two lines in distinct sets take turns (a stack
    // line and a data line): each stays the first way of its own set.
    c.bench_function("cache_sim_1m_two_set_alternation", |b| {
        b.iter(|| {
            let mut cache = Cache::new(32 << 10, 8, 64);
            let mut h = 0u64;
            for i in 0..1_000_000u64 {
                h ^= u64::from(cache.access(0x7FFF_0000 + (i % 2) * 0x140));
            }
            black_box(h)
        })
    });
}

/// The engine comparison (step vs superblock vs uop) on the
/// hot emulation paths: whole-workload execution (translation-cache hit
/// path), the straight-line-heavy workload the superblock tier targets,
/// the dispatch-dominated workload the uop tier targets, batched
/// `on_block` charging vs per-instruction `on_inst`, and the engines
/// driving the full CPU model.
fn bench_block_engine(c: &mut Criterion) {
    let program = Workload::Tao.build(Scale::Test);
    let elf = build(&program, &CompileOptions::default());
    for (name, engine) in [
        ("engine_step_tao_null_sink", Engine::Step),
        ("engine_superblock_tao_null_sink", Engine::Superblock),
        ("engine_uop_tao_null_sink", Engine::Uop),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::new();
                m.load_elf(&elf);
                let r = m.run_engine(&mut NullSink, u64::MAX, engine).unwrap();
                black_box(r.steps)
            })
        });
    }
    for (name, engine) in [
        ("engine_step_tao_cpu_model", Engine::Step),
        ("engine_superblock_tao_cpu_model", Engine::Superblock),
        ("engine_uop_tao_cpu_model", Engine::Uop),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::new();
                m.load_elf(&elf);
                let mut model = CpuModel::new(SimConfig::small());
                m.run_engine(&mut model, u64::MAX, engine).unwrap();
                black_box(model.counters().instructions)
            })
        });
    }

    // The workload shape the superblock tier targets: long
    // straight-line runs interleaving ALU work with loads/stores, one
    // chained block per loop body (the repo benchmark's
    // `straightline_measure` workload; `emu.*.null_mips` in
    // BENCH_repo.json are the measured engine rates).
    let straight = straightline_elf(2_000);
    for (name, engine) in [
        ("engine_step_straightline", Engine::Step),
        ("engine_superblock_straightline", Engine::Superblock),
        ("engine_uop_straightline", Engine::Uop),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::new();
                m.load_elf(&straight);
                let r = m.run_engine(&mut NullSink, u64::MAX, engine).unwrap();
                black_box(r.steps)
            })
        });
    }

    // The dispatch-dominated interp VM — two dispatch sites per
    // iteration whose targets change nearly every execution, the uop
    // tier's stress case (a null sink makes this a dispatch-only loop:
    // pure engine cost, no model work).
    let interp = build(
        &Workload::Interp.build(Scale::Test),
        &CompileOptions::default(),
    );
    for (name, engine) in [
        ("engine_superblock_interp_null_sink", Engine::Superblock),
        ("engine_uop_interp_null_sink", Engine::Uop),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::new();
                m.load_elf(&interp);
                let r = m.run_engine(&mut NullSink, u64::MAX, engine).unwrap();
                black_box(r.steps)
            })
        });
    }

    // Lowering cost per block: a one-iteration binary on a fresh
    // machine each iter, so every block is decoded (superblock) or
    // decoded *and* lowered to micro-ops (uop) exactly once and
    // executed once. The uop-minus-superblock delta is the translation
    // surcharge the tier pays up front.
    let tiny = straightline_elf(1);
    for (name, engine) in [
        ("engine_superblock_translate_only", Engine::Superblock),
        ("engine_uop_translate_and_lower", Engine::Uop),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::new();
                m.load_elf(&tiny);
                let r = m.run_engine(&mut NullSink, u64::MAX, engine).unwrap();
                black_box(r.steps)
            })
        });
    }

    // Lazy vs eager flags: every body instruction writes flags but only
    // the loop-back `jne` reads them. The superblock engine materializes
    // each ALU result's flags eagerly; the uop engine's liveness pass
    // marks all but the last writer dead and skips the flags math.
    let alu = alu_dense_elf(2_000);
    for (name, engine) in [
        ("engine_superblock_alu_eager_flags", Engine::Superblock),
        ("engine_uop_alu_lazy_flags", Engine::Uop),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::new();
                m.load_elf(&alu);
                let r = m.run_engine(&mut NullSink, u64::MAX, engine).unwrap();
                black_box(r.steps)
            })
        });
    }

    // on_block vs N x on_inst on the model alone: one 16-instruction
    // straight-line block charged both ways.
    let entry = 0x400000u64;
    let fetches: Vec<(u64, u8)> = (0..16).map(|i| (entry + i * 4, 4u8)).collect();
    let lines: Vec<u64> = (0..2).map(|i| entry + i * 64).collect();
    let ev = BlockEvent {
        entry,
        inst_count: 16,
        byte_len: 64,
        fetches: &fetches,
        lines64: &lines,
        crossings64: 0,
        mems: &[],
    };
    c.bench_function("cpu_model_16x_on_inst", |b| {
        let mut model = CpuModel::new(SimConfig::small());
        b.iter(|| {
            for &(addr, len) in &fetches {
                model.on_inst(addr, len);
            }
            black_box(model.counters().l1i_accesses)
        })
    });
    c.bench_function("cpu_model_on_block_16", |b| {
        let mut model = CpuModel::new(SimConfig::small());
        b.iter(|| {
            model.on_block(ev);
            black_box(model.counters().l1i_accesses)
        })
    });
    // The superblock event shape: the same block with interleaved
    // memory records, charged batched vs as the equivalent
    // on_inst/on_mem sequence.
    let mems: Vec<MemRecord> = (0..8)
        .map(|i| MemRecord {
            inst: i * 2 + 1,
            addr: 0x7FFF_0000 + (i as u64 % 4) * 8,
            len: 8,
            write: i % 2 == 0,
        })
        .collect();
    let sev = BlockEvent { mems: &mems, ..ev };
    c.bench_function("cpu_model_16x_interleaved_on_inst_mem", |b| {
        let mut model = CpuModel::new(SimConfig::small());
        b.iter(|| {
            let mut mi = 0usize;
            for (i, &(addr, len)) in fetches.iter().enumerate() {
                model.on_inst(addr, len);
                while mi < mems.len() && mems[mi].inst as usize == i {
                    let m = mems[mi];
                    model.on_mem(m.addr, m.len, m.write);
                    mi += 1;
                }
            }
            black_box(model.counters().l1d_accesses)
        })
    });
    c.bench_function("cpu_model_on_superblock_16", |b| {
        let mut model = CpuModel::new(SimConfig::small());
        b.iter(|| {
            model.on_block(sev);
            black_box(model.counters().l1d_accesses)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_codec, bench_layout, bench_hfsort, bench_cache_sim, bench_block_engine
);
criterion_main!(benches);
