//! Cross-crate determinism tests, including the §6 claim: semantic
//! determinism survives non-deterministic device timing, and closed
//! programs are cycle-deterministic end to end.

use lbp::cc;
use lbp::kernels::sensor::SensorApp;
use lbp::sim::{LbpConfig, Machine, Trace};

#[test]
fn sensor_outputs_are_invariant_under_every_tested_jitter() {
    let app = SensorApp::new(2);
    let image = app.program().build().unwrap();
    let values = [[3, 7, 11, 15], [2, 4, 6, 8]];
    let expected = app.expected(&values);
    // A spread of adversarial schedules: in-order, reverse, bursty,
    // one-laggard.
    let schedules: [[Vec<(u64, u32)>; 4]; 4] = [
        [
            vec![(5, 3), (900, 2)],
            vec![(6, 7), (901, 4)],
            vec![(7, 11), (902, 6)],
            vec![(8, 15), (903, 8)],
        ],
        [
            vec![(800, 3), (4000, 2)],
            vec![(600, 7), (3000, 4)],
            vec![(400, 11), (2000, 6)],
            vec![(200, 15), (1500, 8)],
        ],
        [
            vec![(100, 3), (101, 2)],
            vec![(100, 7), (102, 4)],
            vec![(100, 11), (103, 6)],
            vec![(100, 15), (104, 8)],
        ],
        [
            vec![(5, 3), (600, 2)],
            vec![(6, 7), (700, 4)],
            vec![(7, 11), (800, 6)],
            vec![(9000, 15), (20000, 8)],
        ],
    ];
    for (i, schedule) in schedules.into_iter().enumerate() {
        let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
        let out = app.attach_devices(&mut m, schedule);
        m.run(10_000_000).unwrap();
        assert_eq!(
            m.io_mut().output(out).values(),
            expected,
            "schedule #{i} changed the fused values"
        );
    }
}

#[test]
fn identical_device_schedules_give_identical_cycles() {
    // With the SAME schedule, even the cycle count is reproducible: the
    // non-determinism is entirely in the environment, never the machine.
    let app = SensorApp::new(2);
    let image = app.program().build().unwrap();
    let schedule = || {
        [
            vec![(123, 1), (777, 5)],
            vec![(50, 2), (900, 6)],
            vec![(400, 3), (801, 7)],
            vec![(9, 4), (1500, 8)],
        ]
    };
    let run = || {
        let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
        m.set_sink(Box::new(Trace::new()));
        let out = app.attach_devices(&mut m, schedule());
        let r = m.run(10_000_000).unwrap();
        (
            r.stats.cycles,
            m.io_mut().output(out).values(),
            m.sink::<Trace>().unwrap().len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn compiled_c_programs_are_cycle_deterministic() {
    let compiled = cc::compile(
        "int v[16];
int acc[1];
void step(int t) { v[t] = v[t] + t; }
void main(void) {
    int t; int i; int s;
#pragma omp parallel for
    for (t = 0; t < 16; t++) step(t);
#pragma omp parallel for
    for (t = 0; t < 16; t++) step(t);
    s = 0;
    for (i = 0; i < 16; i++) s += v[i];
    acc[0] = s;
}",
    )
    .unwrap();
    let run = || {
        let mut m = Machine::new(LbpConfig::cores(4), &compiled.image).unwrap();
        m.set_sink(Box::new(Trace::new()));
        let r = m.run(10_000_000).unwrap();
        (
            r.stats.cycles,
            r.stats.retired(),
            m.peek_shared(compiled.image.symbol("acc").unwrap())
                .unwrap(),
            m.sink::<Trace>().unwrap().clone(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.2, 2 * (0..16).sum::<u32>());
    assert_eq!(a, b);
}
