//! Property test: random expression trees compiled by `lbp-cc` and
//! executed on the LBP simulator produce the same values as a host-side
//! reference evaluator (with RV32 semantics: wrapping `i32` arithmetic,
//! masked shifts, RISC-V division-by-zero results). Deterministic
//! generation via `lbp-testutil`.

use lbp_cc::compile;
use lbp_sim::{LbpConfig, Machine};
use lbp_testutil::{check_cases, Rng};

/// A random expression over three variables `a`, `b`, `c`.
#[derive(Debug, Clone)]
enum E {
    Const(i32),
    Var(usize),
    Un(&'static str, Box<E>),
    Bin(&'static str, Box<E>, Box<E>),
}

impl E {
    fn to_c(&self) -> String {
        match self {
            E::Const(v) => {
                if *v < 0 {
                    format!("(0 - {})", (*v as i64).abs())
                } else {
                    format!("{v}")
                }
            }
            E::Var(i) => ["a", "b", "c"][*i].to_owned(),
            E::Un(op, x) => format!("({op}{})", x.to_c()),
            E::Bin(op, x, y) => format!("({} {op} {})", x.to_c(), y.to_c()),
        }
    }

    fn eval(&self, vars: [i32; 3]) -> i32 {
        match self {
            E::Const(v) => *v,
            E::Var(i) => vars[*i],
            E::Un(op, x) => {
                let v = x.eval(vars);
                match *op {
                    "-" => v.wrapping_neg(),
                    "!" => (v == 0) as i32,
                    "~" => !v,
                    _ => unreachable!(),
                }
            }
            E::Bin(op, x, y) => {
                let (a, b) = (x.eval(vars), y.eval(vars));
                match *op {
                    "+" => a.wrapping_add(b),
                    "-" => a.wrapping_sub(b),
                    "*" => a.wrapping_mul(b),
                    "/" => {
                        if b == 0 {
                            -1
                        } else if a == i32::MIN && b == -1 {
                            a
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    "%" => {
                        if b == 0 {
                            a
                        } else if a == i32::MIN && b == -1 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    "&" => a & b,
                    "|" => a | b,
                    "^" => a ^ b,
                    "<<" => a.wrapping_shl(b as u32 & 31),
                    ">>" => a.wrapping_shr(b as u32 & 31),
                    "<" => (a < b) as i32,
                    "<=" => (a <= b) as i32,
                    ">" => (a > b) as i32,
                    ">=" => (a >= b) as i32,
                    "==" => (a == b) as i32,
                    "!=" => (a != b) as i32,
                    "&&" => ((a != 0) && (b != 0)) as i32,
                    "||" => ((a != 0) || (b != 0)) as i32,
                    _ => unreachable!(),
                }
            }
        }
    }
}

const UN_OPS: [&str; 3] = ["-", "!", "~"];
const BIN_OPS: [&str; 16] = [
    "+", "-", "*", "/", "%", "&", "|", "^", "<", "<=", ">", ">=", "==", "!=", "&&", "||",
];

/// A random expression tree of at most `depth` operator levels.
fn arb_expr(rng: &mut Rng, depth: u32) -> E {
    // At depth 0, or with leaf probability 1/3, emit a leaf.
    if depth == 0 || rng.index(3) == 0 {
        if rng.flip() {
            E::Const(rng.range_i32(-64, 63))
        } else {
            E::Var(rng.index(3))
        }
    } else if rng.index(4) == 0 {
        E::Un(rng.pick(&UN_OPS), Box::new(arb_expr(rng, depth - 1)))
    } else {
        E::Bin(
            rng.pick(&BIN_OPS),
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        )
    }
}

/// Compiles `out[0] = e` with `a`, `b`, `c` set to `vars`, runs it on one
/// core and compares the word with the reference evaluator's.
fn check(case: &str, e: &E, vars: [i32; 3]) {
    let [a, b, c] = vars;
    let src = format!(
        "int out[1];
void main(void) {{
    int a; int b; int c;
    a = {a}; b = {b}; c = {c};
    out[0] = {};
}}",
        e.to_c()
    );
    let compiled = compile(&src).unwrap_or_else(|err| panic!("case {case}: {err}\n{src}"));
    let mut m = Machine::new(LbpConfig::cores(1), &compiled.image).expect("machine");
    m.run(10_000_000)
        .unwrap_or_else(|err| panic!("case {case}: {err}\n{}", compiled.asm));
    let got = m
        .peek_shared(compiled.image.symbol("out").expect("symbol"))
        .expect("peek") as i32;
    let want = e.eval(vars);
    assert_eq!(
        got,
        want,
        "case {case}: expr {} with a={a} b={b} c={c}",
        e.to_c()
    );
}

#[test]
fn compiled_expressions_match_reference() {
    // A case that once failed: `0 + -(a * 0)` with every variable 0.
    let zero_times = E::Bin(
        "+",
        Box::new(E::Const(0)),
        Box::new(E::Un(
            "-",
            Box::new(E::Bin("*", Box::new(E::Var(0)), Box::new(E::Const(0)))),
        )),
    );
    check("regression", &zero_times, [0, 0, 0]);
    check_cases(48, 0xe4_9123, |rng, case| {
        let e = arb_expr(rng, 3);
        let a = rng.range_i32(-100, 99);
        let b = rng.range_i32(-100, 99);
        let c = rng.range_i32(-100, 99);
        check(&case.to_string(), &e, [a, b, c]);
    });
}
