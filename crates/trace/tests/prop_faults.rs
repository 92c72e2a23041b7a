//! Fault-injection property tests for the JSON parser: damaged or
//! arbitrary input must come back as a typed `Err`, never a panic.
//! (Trace-format fault properties live in `prop_ingest.rs`.)

use vlpp_check::fault::FaultPlan;
use vlpp_check::{check, CheckConfig, Gen};
use vlpp_trace::json::JsonValue;

fn arb_json(g: &mut Gen, depth: usize) -> JsonValue {
    let pick = if depth == 0 { g.below(3) } else { g.below(5) };
    match pick {
        0 => JsonValue::Float(g.u64() as f64 / 1024.0),
        1 => JsonValue::Str(format!("s{}", g.below(1000))),
        2 => JsonValue::Bool(g.bool()),
        3 => JsonValue::Array((0..g.below(4)).map(|_| arb_json(g, depth - 1)).collect()),
        _ => JsonValue::Object(
            (0..g.below(4)).map(|i| (format!("k{i}"), arb_json(g, depth - 1))).collect(),
        ),
    }
}

/// The parser's whole contract under damage: `Ok` or `Err`, never a
/// panic. The property harness itself turns any panic into a failure
/// that prints the reproducing seed.
#[test]
fn json_parser_never_panics_on_mutated_input() {
    check("json_parser_never_panics_on_mutated_input", CheckConfig::default(), |g| {
        let rendered = arb_json(g, 3).pretty();
        let mut plan = FaultPlan::new(g.u64());
        for fault in plan.data_faults(rendered.len().max(1), 9) {
            let damaged = fault.apply(rendered.as_bytes());
            // Mutation can break UTF-8; that path must error cleanly too.
            if let Ok(text) = String::from_utf8(damaged) {
                let _ = JsonValue::parse(&text);
            }
        }
        Ok(())
    });
}

#[test]
fn json_parser_never_panics_on_arbitrary_bytes() {
    check("json_parser_never_panics_on_arbitrary_bytes", CheckConfig::default(), |g| {
        let bytes = g.vec(0, 64, |g| g.u64() as u8);
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = JsonValue::parse(&text);
        }
        Ok(())
    });
}
