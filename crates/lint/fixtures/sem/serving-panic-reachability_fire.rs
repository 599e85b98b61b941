// cardest-lint-fixture: path=crates/server/src/fixture_handler.rs
//! Must-fire: a handler entry point reaches an `unwrap()` two calls deep
//! and a `panic!` one call deep; the diagnostic must carry the witness
//! path.

pub fn handle_estimate(body: &[u8]) -> Vec<u8> {
    let q = decode(body);
    render(q)
}

fn decode(body: &[u8]) -> u32 {
    parse_len(body)
}

fn parse_len(body: &[u8]) -> u32 {
    // Reachable from handle_estimate -> decode -> parse_len.
    let first = body.first().copied().unwrap();
    u32::from(first)
}

fn render(q: u32) -> Vec<u8> {
    if q == 0 {
        panic!("empty estimate");
    }
    q.to_le_bytes().to_vec()
}
