//! Property tests of the language front-end and evaluator: seeded
//! generate-and-check (`jets_ring::stdx::check`), no shrinking; a failure
//! names its seed and case, and editing `SEED` reruns others.

use jets_ring::stdx::{check, SplitMix64};
use std::sync::Arc;
use swiftlite::{FnExecutor, RunOptions, Workflow};

const SEED: u64 = 0x5EED_0004;
const CASES: u64 = 48;

/// A model expression we can both render as swiftlite source and
/// evaluate in Rust.
#[derive(Debug, Clone)]
enum ModelExpr {
    Lit(i64),
    Add(Box<ModelExpr>, Box<ModelExpr>),
    Sub(Box<ModelExpr>, Box<ModelExpr>),
    Mul(Box<ModelExpr>, Box<ModelExpr>),
    Mod(Box<ModelExpr>, Box<ModelExpr>),
}

impl ModelExpr {
    fn render(&self) -> String {
        match self {
            ModelExpr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -v)
                } else {
                    v.to_string()
                }
            }
            ModelExpr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            ModelExpr::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            ModelExpr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            ModelExpr::Mod(a, b) => format!("({} %% {})", a.render(), b.render()),
        }
    }

    fn eval(&self) -> i64 {
        match self {
            ModelExpr::Lit(v) => *v,
            ModelExpr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            ModelExpr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            ModelExpr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            ModelExpr::Mod(a, b) => a.eval().rem_euclid(b.eval()),
        }
    }
}

/// An expression tree at most `depth` operators deep.
fn model_expr(rng: &mut SplitMix64, depth: u32) -> ModelExpr {
    let operand = |rng: &mut SplitMix64| Box::new(model_expr(rng, depth.saturating_sub(1)));
    let op = if depth == 0 { 0 } else { rng.gen_range(0..6) };
    match op {
        0 | 1 => ModelExpr::Lit(rng.gen_range(0..100) as i64 - 50),
        2 => ModelExpr::Add(operand(rng), operand(rng)),
        3 => ModelExpr::Sub(operand(rng), operand(rng)),
        4 => ModelExpr::Mul(operand(rng), operand(rng)),
        // Divisor strictly positive so %% is total.
        _ => ModelExpr::Mod(
            operand(rng),
            Box::new(ModelExpr::Lit(rng.gen_range(1..40) as i64)),
        ),
    }
}

/// `len` characters, each drawn from `alphabet`.
fn string_of(rng: &mut SplitMix64, alphabet: &[char], len: u64) -> String {
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len() as u64) as usize])
        .collect()
}

fn options(rng: &mut SplitMix64) -> RunOptions {
    let tag = rng.next_u64();
    RunOptions {
        work_dir: std::env::temp_dir().join(format!("swift-prop-{tag}-{}", std::process::id())),
        wait_timeout: std::time::Duration::from_secs(20),
    }
}

/// The interpreter agrees with a reference evaluator on arbitrary
/// integer arithmetic, including the Swift `%%` operator.
#[test]
fn arithmetic_matches_reference() {
    check(SEED, CASES, |rng| {
        let expr = model_expr(rng, 3);
        // Keep magnitudes sane: skip overflow-prone trees by value.
        let expected = expr.eval();
        if expected.abs() >= 1_000_000_000 {
            return;
        }
        let source = format!("int r = {};\ntrace(r);\n", expr.render());
        let report = Workflow::parse(&source)
            .unwrap()
            .run(Arc::new(FnExecutor::new()), options(rng))
            .unwrap();
        assert_eq!(&report.traces, &vec![expected.to_string()]);
    });
}

/// The lexer/parser never panic on arbitrary input — they return
/// structured errors.
#[test]
fn parser_total_on_arbitrary_input() {
    check(SEED, CASES, |rng| {
        // Half printable ASCII (where the grammar lives), half any scalar.
        let src: String = (0..rng.gen_range(0..200))
            .map(|_| match rng.gen_range(0..2) {
                0 => char::from(rng.gen_range(0x20..0x7F) as u8),
                _ => char::from_u32(rng.gen_range(0..0x11_0000) as u32).unwrap_or('\u{FFFD}'),
            })
            .collect();
        let _ = Workflow::parse(&src);
    });
}

/// The parser is total on inputs built from language-ish tokens too
/// (denser in near-miss programs than uniformly random text).
#[test]
fn parser_total_on_tokenish_input() {
    const TOKENS: [&str; 17] = [
        "int", "file", "foreach", "app", "if", "=", ";", "{", "}", "(", ")", "[", "]", "%%", "x",
        "42", "\"s\"",
    ];
    check(SEED, CASES, |rng| {
        let tokens: Vec<&str> = (0..rng.gen_range(0..30))
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len() as u64) as usize])
            .collect();
        let _ = Workflow::parse(&tokens.join(" "));
    });
}

/// strcat agrees with plain Rust concatenation for arbitrary
/// alphanumeric fragments.
#[test]
fn strcat_matches_reference() {
    let alphabet: Vec<char> = ('a'..='z')
        .chain('A'..='Z')
        .chain('0'..='9')
        .chain(['_', '.'])
        .collect();
    check(SEED, CASES, |rng| {
        let parts: Vec<String> = (0..rng.gen_range(1..6))
            .map(|_| {
                let len = rng.gen_range(0..11);
                string_of(rng, &alphabet, len)
            })
            .collect();
        let args = parts
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let source = format!("trace(strcat({args}));\n");
        let report = Workflow::parse(&source)
            .unwrap()
            .run(Arc::new(FnExecutor::new()), options(rng))
            .unwrap();
        assert_eq!(&report.traces, &vec![parts.concat()]);
    });
}

/// foreach over [lo:hi] visits exactly the inclusive range, whatever
/// the bounds.
#[test]
fn foreach_covers_inclusive_range() {
    check(SEED, CASES, |rng| {
        let lo = rng.gen_range(0..40) as i64 - 20;
        let hi = lo + rng.gen_range(0..20) as i64;
        let source = format!("foreach i in [{lo}:{hi}] {{ trace(i); }}\n");
        let report = Workflow::parse(&source)
            .unwrap()
            .run(Arc::new(FnExecutor::new()), options(rng))
            .unwrap();
        let mut got: Vec<i64> = report.traces.iter().map(|t| t.parse().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (lo..=hi).collect::<Vec<_>>());
    });
}
