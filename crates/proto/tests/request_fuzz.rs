//! Property tests of [`read_request`] on adversarial bytes: random input,
//! spliced request targets, and truncations and byte flips of a valid
//! request all yield a [`Request`] or a typed [`RequestError`], never a
//! panic.

use proptest::prelude::*;
use qosrm_proto::http::{read_request, RequestError, MAX_HEAD_BYTES};

/// Body bound the properties read with (the daemon's default is 1 MiB).
const MAX_BODY: usize = 256;

/// A well-formed request with a query, percent-escapes and a body.
const VALID: &[u8] = b"POST /runs/r%2F01/cancel?from=4&label=a+b HTTP/1.0\r\n\
Host: 127.0.0.1\r\nX-Qosrm-Proto: qosrm/2\r\nContent-Length: 17\r\n\r\n{\"name\":\"smoke\"}\n";

/// Fragments random requests are spliced from, so generated inputs reach
/// the request-line, header, target and body paths, not only the head
/// scan.
const FRAGMENTS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b" ",
    b"/runs",
    b"/",
    b"?",
    b"&",
    b"=",
    b"+",
    b"%",
    b"%2F",
    b"%a",
    "é".as_bytes(),
    "漢".as_bytes(),
    b"HTTP/1.0",
    b"\r\n",
    b"\r\n\r\n",
    b":",
    b"Content-Length: ",
    b"5",
    b"99999999999999999999",
    b"\xff",
    b"\x00",
    b"{\"a\":[1]}",
];

/// Fragments of request targets: escapes valid and invalid, and multibyte
/// chars that a `%` may precede.
const TARGET_FRAGMENTS: &[&str] = &[
    "/", "runs", "%", "%a", "%2F", "%zz", "%4", "é", "漢", "🚀", "?", "&", "=", "+",
];

/// Reads `bytes` as one request; a panic fails the property.
fn read(bytes: &[u8]) -> Result<qosrm_proto::http::Request, RequestError> {
    let mut wire = bytes;
    read_request(&mut wire, MAX_BODY)
}

#[test]
fn the_valid_request_parses() {
    let request = read(VALID).unwrap();
    assert_eq!(request.method, "POST");
    assert_eq!(request.path, "/runs/r/01/cancel");
    assert_eq!(request.query_param("label"), Some("a b"));
    assert_eq!(request.header("x-qosrm-proto"), Some("qosrm/2"));
    assert_eq!(request.body, b"{\"name\":\"smoke\"}\n");
}

#[test]
fn an_endless_head_is_too_large() {
    let head = vec![b'a'; 4 * MAX_HEAD_BYTES];
    assert_eq!(
        read(&head).unwrap_err(),
        RequestError::TooLarge {
            limit: MAX_HEAD_BYTES
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Uniformly random bytes.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..600)) {
        let _ = read(&bytes);
    }

    /// Random splices of HTTP-shaped fragments and raw bytes.
    #[test]
    fn random_fragments_never_panic(
        picks in prop::collection::vec((0usize..FRAGMENTS.len() + 1, 0u8..=255), 0..60),
    ) {
        let mut bytes = Vec::new();
        for (pick, raw) in picks {
            match FRAGMENTS.get(pick) {
                Some(fragment) => bytes.extend_from_slice(fragment),
                None => bytes.push(raw),
            }
        }
        let _ = read(&bytes);
    }

    /// A well-formed request line around any target spliced from
    /// [`TARGET_FRAGMENTS`] parses: percent-decoding never slices a
    /// multibyte char.
    #[test]
    fn random_targets_parse(
        picks in prop::collection::vec(0usize..TARGET_FRAGMENTS.len(), 1..24),
    ) {
        let target: String = picks.iter().map(|&pick| TARGET_FRAGMENTS[pick]).collect();
        let request = read(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes());
        prop_assert!(request.is_ok(), "{target:?}: {request:?}");
    }

    /// Every strict prefix of a valid request is torn: `Closed` when empty,
    /// `Malformed` otherwise.
    #[test]
    fn truncations_are_typed_errors(cut in 0usize..VALID.len()) {
        let err = read(&VALID[..cut]).unwrap_err();
        if cut == 0 {
            prop_assert_eq!(err, RequestError::Closed);
        } else {
            prop_assert!(matches!(err, RequestError::Malformed(_)), "cut {cut}: {err:?}");
        }
    }

    /// One to four bytes of a valid request overwritten, and the result
    /// optionally truncated.
    #[test]
    fn byte_flips_never_panic(
        flips in prop::collection::vec((0usize..VALID.len(), 0u8..=255), 1..5),
        keep in 0usize..VALID.len() + 40,
    ) {
        let mut bytes = VALID.to_vec();
        for (at, value) in flips {
            bytes[at] = value;
        }
        bytes.truncate(keep);
        if let Ok(request) = read(&bytes) {
            prop_assert!(request.body.len() <= MAX_BODY);
        }
    }
}
