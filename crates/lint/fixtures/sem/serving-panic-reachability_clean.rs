// cardest-lint-fixture: path=crates/server/src/fixture_handler.rs
//! Must-not-fire: the same call shape, but every serving-reachable step
//! degrades with a typed error or carries a reasoned pragma; the only
//! `unwrap` lives in a test, which is never a serving entry point.

pub enum DecodeError {
    Empty,
}

pub fn handle_estimate(body: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let q = decode(body)?;
    Ok(render(q))
}

fn decode(body: &[u8]) -> Result<u32, DecodeError> {
    parse_len(body)
}

fn parse_len(body: &[u8]) -> Result<u32, DecodeError> {
    match body.first() {
        Some(&b) => Ok(u32::from(b)),
        None => Err(DecodeError::Empty),
    }
}

fn render(q: u32) -> Vec<u8> {
    let out = Some(q.to_le_bytes().to_vec());
    // cardest-lint: allow(serving-panic-reachability): `out` is Some one line up
    out.expect("rendered")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let out = handle_estimate(&[7]);
        assert_eq!(out.ok().unwrap(), 7u32.to_le_bytes().to_vec());
    }
}
