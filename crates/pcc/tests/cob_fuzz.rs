//! The `.cob` fuzz table: every prefix of the shipped models and every
//! single-byte replacement from a hostile alphabet goes through
//! `CoreObject::parse`, and whatever parses through planning and
//! `compile_serial` at 8 and 64 cores. An error is an answer; a panic is
//! a bug.

use compass_pcc::{compile_serial, plan, CoreObject};
use std::collections::HashSet;
use std::path::Path;

/// Bytes a hand-edited or truncated file plausibly carries in a wrong
/// place: a NUL, the key/value and comment separators, a sign, a digit,
/// a line break and a space.
const REPLACEMENTS: [u8; 7] = [0, b'=', b'#', b'-', b'9', b'\n', b' '];

/// Every cut and every single-byte replacement of `text`, as the strings
/// that are UTF-8 (all of them: the models are ASCII).
fn variants(text: &[u8]) -> Vec<String> {
    let cuts = (0..=text.len()).map(|n| text[..n].to_vec());
    let edits = (0..text.len()).flat_map(|at| {
        REPLACEMENTS.into_iter().map(move |b| {
            let mut v = text.to_vec();
            v[at] = b;
            v
        })
    });
    cuts.chain(edits)
        .filter_map(|v| String::from_utf8(v).ok())
        .collect()
}

#[test]
fn cut_or_edited_models_parse_plan_and_compile_without_a_panic() {
    let models = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut compiled = HashSet::new();
    let (mut inputs, mut parsed) = (0usize, 0usize);
    for name in ["demo.cob", "visual_stream.cob"] {
        let text = std::fs::read(models.join(name)).expect("shipped model reads");
        for variant in variants(&text) {
            inputs += 1;
            let Ok(object) = CoreObject::parse(&variant) else {
                continue;
            };
            parsed += 1;
            // Most edits land in comments or spacing: compile each
            // distinct description once.
            if !compiled.insert(format!("{object:?}")) {
                continue;
            }
            for cores in [8u64, 64] {
                let _ = plan(&object, cores, 4);
                let _ = compile_serial(&object, cores);
            }
        }
    }
    println!(
        "{inputs} inputs, {parsed} parsed, {} distinct descriptions compiled",
        compiled.len()
    );
    // The table covered both outcomes, not one of them.
    assert!(parsed > 0 && parsed < inputs, "{parsed} of {inputs} parsed");
    assert!(
        compiled.len() > 100,
        "{} distinct descriptions",
        compiled.len()
    );
}
