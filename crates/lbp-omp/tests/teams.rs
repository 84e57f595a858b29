//! Integration tests: Deterministic OpenMP programs running on the LBP
//! simulator.

use lbp_isa::Reg;
use lbp_omp::{DetOmp, ReduceOp};
use lbp_sim::{LbpConfig, Machine};

/// Builds, runs on `cores` cores, and returns the machine.
fn run(p: &DetOmp, cores: usize) -> Machine {
    let image = p.build().unwrap_or_else(|e| panic!("{e}\n{}", p.source()));
    let mut m = Machine::new(LbpConfig::cores(cores), &image).expect("machine");
    let report = m
        .run(5_000_000)
        .unwrap_or_else(|e| panic!("{e}\n{}", p.source()));
    assert!(report.exited);
    m
}

/// Each member writes `index + 1` into its slot of a shared vector.
fn write_indices(threads: usize) -> DetOmp {
    DetOmp::new(threads)
        .data_space("v", (threads * 4) as u32)
        .function(
            "thread",
            "la   a2, v
             slli a3, a0, 2
             add  a2, a2, a3
             addi a4, a0, 1
             sw   a4, 0(a2)
             p_ret",
        )
        .parallel_for("thread")
}

fn check_vector(m: &mut Machine, base_sym: u32, n: usize) {
    for t in 0..n {
        let got = m.peek_shared(base_sym + 4 * t as u32).unwrap();
        assert_eq!(got, t as u32 + 1, "member {t} wrote its slot");
    }
}

#[test]
fn team_sizes_from_one_to_sixteen() {
    for threads in 1..=16 {
        let p = write_indices(threads);
        let cores = threads.div_ceil(4).max(1);
        let mut m = run(&p, cores);
        let base = p.build().unwrap().symbol("v").unwrap();
        check_vector(&mut m, base, threads);
    }
}

#[test]
fn team_spreads_across_cores_in_order() {
    // 8 members on 2 cores: members 0-3 on core 0, 4-7 on core 1
    // (paper Fig. 3). The thread body busy-works long enough that the
    // spawn wave finishes before any member ends, so each member lands on
    // its own hart. (With very short threads a finished member's hart is
    // recycled deterministically — the member-to-core mapping is
    // unaffected because every fourth fork is a `p_fn`.)
    let p = DetOmp::new(8)
        .data_space("v", 32)
        .function(
            "thread",
            "li   a4, 0
             li   a5, 200
spin:
             addi a4, a4, 1
             bne  a4, a5, spin
             la   a2, v
             slli a3, a0, 2
             add  a2, a2, a3
             addi a4, a0, 1
             sw   a4, 0(a2)
             p_ret",
        )
        .parallel_for("thread");
    let mut m = run(&p, 2);
    for hart in 0..8 {
        assert!(
            m.stats().retired_per_hart[hart] > 0,
            "hart {hart} must participate: {:?}",
            m.stats().retired_per_hart
        );
    }
    assert_eq!(m.stats().forks, 7);
    let base = p.build().unwrap().symbol("v").unwrap();
    check_vector(&mut m, base, 8);
}

#[test]
fn consecutive_regions_are_barrier_separated() {
    // Region 1 initializes v[t] = t+1; region 2 reads v[t] and writes
    // w[t] = 2*v[t]. The hardware barrier makes region 1's stores visible.
    let threads = 8;
    let p = DetOmp::new(threads)
        .data_space("v", 32)
        .data_space("w", 32)
        .function(
            "set",
            "la   a2, v
             slli a3, a0, 2
             add  a2, a2, a3
             addi a4, a0, 1
             sw   a4, 0(a2)
             p_ret",
        )
        .function(
            "get",
            "la   a2, v
             slli a3, a0, 2
             add  a2, a2, a3
             lw   a4, 0(a2)
             la   a5, w
             add  a5, a5, a3
             slli a4, a4, 1
             sw   a4, 0(a5)
             p_ret",
        )
        .parallel_for("set")
        .parallel_for("get");
    let m = run(&p, 2);
    let w = p.build().unwrap().symbol("w").unwrap();
    for t in 0..threads {
        assert_eq!(m.peek_shared(w + 4 * t as u32).unwrap(), 2 * (t as u32 + 1));
    }
}

#[test]
fn three_regions_chain() {
    let p = DetOmp::new(4)
        .data_space("acc", 16)
        .function(
            "inc",
            "la   a2, acc
             slli a3, a0, 2
             add  a2, a2, a3
             lw   a4, 0(a2)
             p_syncm
             addi a4, a4, 1
             sw   a4, 0(a2)
             p_ret",
        )
        .parallel_for("inc")
        .parallel_for("inc")
        .parallel_for("inc");
    let m = run(&p, 1);
    let acc = p.build().unwrap().symbol("acc").unwrap();
    for t in 0..4 {
        assert_eq!(m.peek_shared(acc + 4 * t).unwrap(), 3);
    }
}

#[test]
fn parallel_sections_run_distinct_functions() {
    let p = DetOmp::new(4)
        .data_space("out", 16)
        .function("sec0", "la a2, out\n li a3, 10\n sw a3, 0(a2)\n p_ret")
        .function("sec1", "la a2, out\n li a3, 20\n sw a3, 4(a2)\n p_ret")
        .function("sec2", "la a2, out\n li a3, 30\n sw a3, 8(a2)\n p_ret")
        .function("sec3", "la a2, out\n li a3, 40\n sw a3, 12(a2)\n p_ret")
        .parallel_sections(&["sec0", "sec1", "sec2", "sec3"]);
    let m = run(&p, 1);
    let out = p.build().unwrap().symbol("out").unwrap();
    assert_eq!(m.peek_shared(out).unwrap(), 10);
    assert_eq!(m.peek_shared(out + 4).unwrap(), 20);
    assert_eq!(m.peek_shared(out + 8).unwrap(), 30);
    assert_eq!(m.peek_shared(out + 12).unwrap(), 40);
}

/// Two `parallel sections` regions: each gets its own table of function
/// addresses, and the whole listing is pinned byte for byte.
#[test]
fn two_sections_regions_render_the_pinned_listing() {
    let p = DetOmp::new(2)
        .function("left", "p_ret")
        .function("right", "p_ret")
        .parallel_sections(&["left", "right"])
        .parallel_sections(&["right", "left", "right"]);
    let source = p.source();
    let fnv = source.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((source.len(), fnv), (2628, 0xe863_f32a_ec75_78ed));
    let data = &source[source.find(".data").unwrap()..];
    assert_eq!(
        data,
        ".data\n_omp_sections_0:\n    .word left\n    .word right\n\
         _omp_sections_1:\n    .word right\n    .word left\n    .word right\n"
    );
    p.build().unwrap();
}

#[test]
fn reduction_over_backward_line() {
    // Each member sends (index+1)^2 to the join hart; hart 0 folds.
    let threads = 8;
    let p = DetOmp::new(threads)
        .data_space("sum", 4)
        .function(
            "sq",
            "addi a2, a0, 1
             mul  a3, a2, a2
             p_swre a3, t1, 0
             p_ret",
        )
        .parallel_for("sq")
        .collect_reduction(0, threads, ReduceOp::Add, "sum");
    let m = run(&p, 2);
    let sum = p.build().unwrap().symbol("sum").unwrap();
    let expect: u32 = (1..=threads as u32).map(|x| x * x).sum();
    assert_eq!(m.peek_shared(sum).unwrap(), expect);
}

#[test]
fn min_and_max_reductions() {
    let threads = 4;
    let base = DetOmp::new(threads)
        .data_space("res", 4)
        .function(
            "send",
            "slli a2, a0, 2
             addi a2, a2, -6     # values -6, -2, 2, 6
             p_swre a2, t1, 1
             p_ret",
        )
        .parallel_for("send");
    let pmin = base
        .clone()
        .collect_reduction(1, threads, ReduceOp::Min, "res");
    let m = run(&pmin, 1);
    let res = pmin.build().unwrap().symbol("res").unwrap();
    assert_eq!(m.peek_shared(res).unwrap() as i32, -6);
    let pmax = base.collect_reduction(1, threads, ReduceOp::Max, "res");
    let m = run(&pmax, 1);
    assert_eq!(m.peek_shared(res).unwrap() as i32, 6);
}

#[test]
fn sequential_steps_interleave_with_regions() {
    let p = DetOmp::new(4)
        .data_space("flag", 8)
        .function(
            "touch",
            "la  a2, flag
             lw  a3, 0(a2)
             p_syncm
             slli a4, a0, 0
             add a3, a3, a4
             sw  a3, 0(a2)
             p_ret",
        )
        .seq("la  a2, flag\n li  a3, 100\n sw  a3, 0(a2)\n p_syncm")
        .parallel_for_n("touch", 1)
        .seq(
            "la  a2, flag
             lw  a3, 0(a2)
             p_syncm
             sw  a3, 4(a2)
             p_syncm",
        );
    let m = run(&p, 1);
    let flag = p.build().unwrap().symbol("flag").unwrap();
    assert_eq!(m.peek_shared(flag + 4).unwrap(), 100);
}

#[test]
fn parallel_for_arg_passes_the_data_pointer() {
    // Members receive a data symbol in a1 and index off it.
    let p = DetOmp::new(4)
        .data_words("table", &[100, 200, 300, 400])
        .data_space("out", 16)
        .function(
            "scaled",
            "slli a3, a0, 2
             add  a4, a1, a3       # &table[t] via the a1 argument
             lw   a5, 0(a4)
             la   a6, out
             add  a6, a6, a3
             slli a5, a5, 1
             sw   a5, 0(a6)
             p_ret",
        )
        .parallel_for_arg("scaled", "table");
    let m = run(&p, 1);
    let out = p.build().unwrap().symbol("out").unwrap();
    for t in 0..4 {
        assert_eq!(m.peek_shared(out + 4 * t).unwrap(), 200 * (t + 1));
    }
}

#[test]
fn generated_source_is_deterministic() {
    let a = write_indices(8).source();
    let b = write_indices(8).source();
    assert_eq!(a, b);
}

#[test]
fn runs_are_cycle_deterministic() {
    let p = write_indices(12);
    let image = p.build().unwrap();
    let run_once = || {
        let mut m = Machine::new(LbpConfig::cores(3).with_trace(), &image).unwrap();
        m.run(5_000_000).unwrap();
        (m.stats().cycles, m.stats().retired(), m.trace().clone())
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn parallelization_overhead_is_modest() {
    // The paper reports ~2386 instructions of team overhead for 16
    // members (Fig. 19 discussion). Our protocol transmits six registers
    // per fork; check the same order of magnitude: under 100 retired
    // instructions per member of pure overhead.
    let threads = 16;
    let p = DetOmp::new(threads)
        .function("empty", "p_ret")
        .parallel_for("empty");
    let m = run(&p, 4);
    let retired = m.stats().retired();
    assert!(
        retired < 100 * threads as u64,
        "team overhead too high: {retired} instructions"
    );
}

#[test]
fn ordered_channels_build_a_pipeline_across_concurrent_members() {
    // The §8 "deterministic MPI" sketch: member 0 produces a value and
    // sends it forward; members 1 and 2 transform and forward; member 3
    // stores the result — all within ONE parallel region, rank order =
    // the sequential referential order.
    use lbp_asm::Asm;
    use lbp_omp::Channel;

    let chans: Vec<Channel> = (0..3).map(|i| Channel::new(format!("ch{i}"))).collect();
    let stage = |idx: usize| -> String {
        let mut a = Asm::new();
        if idx == 0 {
            a.line("li   a2, 7");
        } else {
            chans[idx - 1].emit_recv(&mut a, Reg::A2);
            a.line(format!("addi a2, a2, {}", 10 * idx));
        }
        if idx < 3 {
            chans[idx].emit_send(&mut a, Reg::A2);
        } else {
            a.line("la   a3, pipe_out");
            a.line("sw   a2, 0(a3)");
        }
        a.line("p_ret");
        a.into_text()
    };
    let mut p = DetOmp::new(4)
        .data_space("ch0", 8)
        .data_space("ch1", 8)
        .data_space("ch2", 8)
        .data_space("pipe_out", 4);
    for i in 0..4 {
        p = p.function(format!("stage{i}"), stage(i));
    }
    let p = p.parallel_sections(&["stage0", "stage1", "stage2", "stage3"]);
    let m = run(&p, 1);
    let out = p.build().unwrap().symbol("pipe_out").unwrap();
    // 7 -> +10 -> +20 -> +30 = 67.
    assert_eq!(m.peek_shared(out).unwrap(), 67);
}

#[test]
fn channel_pipelines_replay_cycle_exactly() {
    use lbp_asm::Asm;
    use lbp_omp::Channel;
    let ch = Channel::new("cx");
    let mut producer = Asm::new();
    producer.line("li a2, 5");
    // Delay the send so the receiver demonstrably polls.
    producer.line("li a4, 300");
    producer.label("pdelay");
    producer.line("addi a4, a4, -1");
    producer.line("bnez a4, pdelay");
    ch.emit_send(&mut producer, Reg::A2);
    producer.line("p_ret");
    let mut consumer = Asm::new();
    ch.emit_recv(&mut consumer, Reg::A3);
    consumer.line("la a4, cx_out");
    consumer.line("sw a3, 0(a4)");
    consumer.line("p_ret");
    let p = DetOmp::new(2)
        .data_space("cx", 8)
        .data_space("cx_out", 4)
        .function("produce", producer.into_text())
        .function("consume", consumer.into_text())
        .parallel_sections(&["produce", "consume"]);
    let image = p.build().unwrap();
    let once = || {
        let mut m = Machine::new(LbpConfig::cores(1).with_trace(), &image).unwrap();
        m.run(5_000_000).unwrap();
        (
            m.stats().cycles,
            m.peek_shared(image.symbol("cx_out").unwrap()).unwrap(),
            m.trace().len(),
        )
    };
    let a = once();
    assert_eq!(a.1, 5);
    assert_eq!(a, once(), "polling durations replay exactly");
}

#[test]
fn stream_channel_carries_a_bounded_sequence() {
    use lbp_asm::Asm;
    use lbp_omp::StreamChannel;
    let stream = StreamChannel::new("strm", 8);
    let mut producer = Asm::new();
    producer.raw(
        "    li   a2, 0
prod_loop:
    slli a3, a2, 1
    addi a3, a3, 1        # item = 2i + 1",
    );
    stream.emit_send_indexed(&mut producer, Reg::A3, Reg::A2);
    producer.raw(
        "    addi a2, a2, 1
    li   a4, 8
    bne  a2, a4, prod_loop
    p_ret",
    );
    let mut consumer = Asm::new();
    consumer.raw(
        "    li   a2, 0
    li   a5, 0            # running sum
cons_loop:",
    );
    stream.emit_recv_indexed(&mut consumer, Reg::A4, Reg::A2);
    consumer.raw(
        "    add  a5, a5, a4
    addi a2, a2, 1
    li   a6, 8
    bne  a2, a6, cons_loop
    la   a6, strm_out
    sw   a5, 0(a6)
    p_ret",
    );
    let p = DetOmp::new(2)
        .data_space("strm", stream.data_bytes())
        .data_space("strm_out", 4)
        .function("produce", producer.into_text())
        .function("consume", consumer.into_text())
        .parallel_sections(&["produce", "consume"]);
    let m = run(&p, 1);
    let out = p.build().unwrap().symbol("strm_out").unwrap();
    // sum of 1,3,5,...,15 = 64.
    assert_eq!(m.peek_shared(out).unwrap(), 64);
}
